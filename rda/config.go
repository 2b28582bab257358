// Package rda is a database storage engine that reproduces "Database
// Recovery Using Redundant Disk Arrays" (Mourad, Fuchs & Saab, ICDE
// 1992): transaction recovery built on the redundancy already present in
// a parity-protected disk array.
//
// The engine runs fixed-size-page transactions over a simulated
// redundant disk array and supports every algorithm family the paper
// analyzes:
//
//   - page logging or record logging (Sections 5.2 and 5.3), with page or
//     record locking respectively;
//   - FORCE EOT processing with transaction-oriented checkpoints (TOC) or
//     ¬FORCE with action-consistent checkpoints (ACC);
//   - classic log-only UNDO (the baseline) or RDA recovery (Section 4),
//     in which a large fraction of the pages modified by active
//     transactions is written back with no UNDO logging at all, undo
//     material being the array's twin parity pages;
//   - data striping (RAID-5 with rotated parity) or Gray's parity
//     striping underneath either scheme.
//
// Every disk and log access is accounted in page transfers — the unit of
// the paper's performance model — so benchmark harnesses can regenerate
// the paper's figures from live executions.
package rda

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/erasure"
)

// Layout selects the array organization (Section 3).
type Layout int

// Array layouts.
const (
	// DataStriping is RAID-5 with rotated parity (Figures 1 and 4).
	DataStriping Layout = iota
	// ParityStriping is Gray's organization (Figures 2 and 5).
	ParityStriping
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	if l == DataStriping {
		return "data-striping"
	}
	return "parity-striping"
}

// LoggingMode selects the logging and locking granularity.
type LoggingMode int

// Logging modes.
const (
	// PageLogging logs whole-page images and locks pages (Section 5.2).
	PageLogging LoggingMode = iota
	// RecordLogging logs record images and locks records (Section 5.3).
	RecordLogging
)

// String implements fmt.Stringer.
func (m LoggingMode) String() string {
	if m == PageLogging {
		return "page-logging"
	}
	return "record-logging"
}

// EOTDiscipline selects end-of-transaction processing.
type EOTDiscipline int

// EOT disciplines.
const (
	// Force writes all of a transaction's modified pages to the database
	// before EOT; checkpointing is transaction-oriented (TOC).
	Force EOTDiscipline = iota
	// NoForce leaves modified pages in the buffer at EOT; REDO recovery
	// replays after-images after a crash, and checkpoints are
	// action-consistent (ACC).
	NoForce
)

// String implements fmt.Stringer.
func (d EOTDiscipline) String() string {
	if d == Force {
		return "force-toc"
	}
	return "noforce-acc"
}

// Config describes a database.  The zero value is not valid; call
// DefaultConfig or fill in at least the geometry fields.  Defaults mirror
// the paper's model parameters where it states them.
type Config struct {
	// DataDisks is N, the data pages per parity group (paper: 10).  The
	// array uses N+1 disks without RDA recovery and N+2 with it.
	DataDisks int
	// NumPages is S, the database size in pages (paper: 5000).
	NumPages int
	// PageSize is the page size in bytes (paper's l_p ≈ 2020; default
	// 2048).
	PageSize int
	// BufferFrames is B, the buffer size in frames (paper: 300).
	BufferFrames int
	// Layout selects data striping or parity striping.
	Layout Layout
	// Logging selects page or record granularity (logging and locking).
	Logging LoggingMode
	// EOT selects FORCE/TOC or ¬FORCE/ACC.
	EOT EOTDiscipline
	// RDA enables the paper's recovery scheme (twin parity pages, the
	// Dirty_Set, no-UNDO-logging steals).  When false the engine is the
	// traditional log-only baseline on a single-parity array.
	RDA bool
	// QParity adds a second redundancy page (Q, a Reed-Solomon code over
	// GF(2^8)) beside each parity twin, RAID-6 style: the array then
	// survives two simultaneous disk deaths, and the scrubber can repair
	// a corrupt block even while a disk is down.  Every Q page twins in
	// lockstep with its P partner — same header, written just before it —
	// so the twin-parity recovery protocol is unchanged; small writes
	// cost two extra transfers (the Q read-modify-write).  Requires RDA.
	QParity bool
	// RecordSize is r, the record length for RecordLogging (paper: 100).
	RecordSize int
	// LogPageSize is the physical log page size (paper: 2020).
	LogPageSize int
	// LogWriteCost is the page transfers charged per log page forced
	// (paper's model: 4, a small array write).
	LogWriteCost int
	// PackedLog selects the buffered-log cost accounting of the paper's
	// record logging analysis (entries pack into l_p-byte log pages that
	// are charged once each) instead of charging every forced append.
	// Durability is unaffected; see wal.Config.Packed.
	PackedLog bool

	// Workers bounds the engine's internal parallelism for the
	// embarrassingly parallel disk loops: bulk-load stripe writes, media
	// recovery's and the online rebuild's groups, and restart's group walk,
	// laundering writes, parity resync and drive probe.  The default of 1
	// runs every loop inline in deterministic order — required for
	// replayable crash-point schedules — while larger values fan the
	// per-group work across a bounded worker pool.  When the drives queue
	// (QueueDepth > 1) every one of these loops ignores it and runs one
	// lane per member drive instead: a queued drive serves one transfer
	// at a time, so that is the width that keeps every drive busy, and
	// QueueDepth already bounds what is outstanding.
	// Transaction concurrency itself is not limited by this knob; any
	// number of goroutines may run transactions against the engine, and
	// transactions on disjoint parity groups proceed in parallel under
	// the group latch table regardless of Workers.
	Workers int

	// IODelay, when non-zero, is the simulated service time of one block
	// transfer: each drive sleeps it per charged read or write, one
	// transfer at a time per drive, so wall-clock throughput reflects the
	// array parallelism actually achieved (transfers to distinct drives
	// overlap; queued transfers to one drive serialize).  Zero — the
	// default, and the right value for tests and the analytical
	// experiments — keeps all I/O instantaneous and costs measured purely
	// in transfer counts.  The concurrency benchmark (rdabench -workers)
	// sets it to make tx/second a meaningful measure of group-striped
	// scaling.
	IODelay time.Duration

	// --- Async I/O pipeline knobs (see DESIGN.md §"The async I/O
	// pipeline") ---

	// QueueDepth, when greater than 1, gives every drive a request queue
	// of that depth, each waiting caller running its own transfer when
	// the drive's picker gives it the drive: transfers to one drive are
	// reordered elevator-style over block addresses and overlap with
	// transfers to other drives, and the engine issues the
	// independent transfers of one operation (the small-write RMW's
	// reads, a full-stripe write's data writes, the member reads of a
	// reconstruction, a whole-group read or the restart's torn scan)
	// together, and a FORCE commit's flushes of its parity groups side by
	// side.
	// The default of 1 keeps the synchronous drive model: every transfer
	// completes before the next is issued, in submission order — required
	// for byte-replayable crash schedules.
	QueueDepth int
	// QueueWindow bounds the elevator's reordering: a queued request is
	// passed over at most QueueWindow times before it is served next
	// regardless of head position (default 8).  Only meaningful with
	// QueueDepth > 1.
	QueueWindow int
	// GroupCommitWindow, when positive, batches EOT log forces: a
	// committing transaction appends its after-images and EOT record
	// without forcing, then waits — at most this window — for a shared
	// force that folds every EOT appended in the window into one log
	// write.  Commit still acknowledges only after the fold-in is
	// durable.  While group commit is on, each physical log force also
	// sleeps IODelay once, modelling the log device's service time.
	// Zero — the default — forces each EOT as it is appended, and with
	// it the transaction's unforced after-images.
	GroupCommitWindow time.Duration
}

// DefaultConfig returns the paper's model parameters.
func DefaultConfig() Config {
	return Config{
		DataDisks:    10,
		NumPages:     5000,
		PageSize:     2048,
		BufferFrames: 300,
		Layout:       DataStriping,
		Logging:      PageLogging,
		EOT:          Force,
		RDA:          true,
		RecordSize:   100,
		LogPageSize:  2020,
		LogWriteCost: 4,
		Workers:      1,
	}
}

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("rda: invalid configuration")

// validate fills defaults for zero fields and checks consistency.
func (c Config) validate() (Config, error) {
	def := DefaultConfig()
	if c.DataDisks == 0 {
		c.DataDisks = def.DataDisks
	}
	if c.NumPages == 0 {
		c.NumPages = def.NumPages
	}
	if c.PageSize == 0 {
		c.PageSize = def.PageSize
	}
	if c.BufferFrames == 0 {
		c.BufferFrames = def.BufferFrames
	}
	if c.RecordSize == 0 {
		c.RecordSize = def.RecordSize
	}
	if c.LogPageSize == 0 {
		c.LogPageSize = def.LogPageSize
	}
	if c.LogWriteCost == 0 {
		c.LogWriteCost = def.LogWriteCost
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.IODelay < 0 {
		c.IODelay = 0
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 1
	}
	if c.QueueWindow <= 0 {
		c.QueueWindow = 8
	}
	if c.GroupCommitWindow < 0 {
		c.GroupCommitWindow = 0
	}
	if c.DataDisks < 1 {
		return c, fmt.Errorf("%w: DataDisks must be at least 1", ErrBadConfig)
	}
	if c.NumPages < c.DataDisks {
		return c, fmt.Errorf("%w: NumPages must be at least one group", ErrBadConfig)
	}
	if c.BufferFrames < 2 {
		return c, fmt.Errorf("%w: BufferFrames must be at least 2", ErrBadConfig)
	}
	if c.PageSize < 64 {
		return c, fmt.Errorf("%w: PageSize must be at least 64", ErrBadConfig)
	}
	if c.Logging == RecordLogging && c.RecordSize >= c.PageSize {
		return c, fmt.Errorf("%w: RecordSize must be smaller than PageSize", ErrBadConfig)
	}
	if c.QParity && !c.RDA {
		return c, fmt.Errorf("%w: QParity requires RDA (Q pages twin in lockstep with the parity twins)", ErrBadConfig)
	}
	if c.QParity && c.DataDisks > erasure.MaxMembers {
		return c, fmt.Errorf("%w: QParity protects at most %d data disks", ErrBadConfig, erasure.MaxMembers)
	}
	return c, nil
}
