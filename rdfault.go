// Package rdfault identifies robust dependent (RD) path delay faults in
// combinational circuits — a from-scratch reproduction of U. Sparmann,
// D. Luxenburger, K.-T. Cheng and S.M. Reddy, "Fast Identification of
// Robust Dependent Path Delay Faults", 32nd Design Automation Conference,
// 1995.
//
// RD paths never need to be tested: if every path outside an RD-set
// passes a robust delay test, the circuit meets its clock period
// (Theorem 1). This package exposes the paper's fast identification
// pipeline — implicit path enumeration with local implications over
// input-sort-induced stabilizing assignments — together with every
// substrate it rests on: the netlist model, stabilizing systems, path
// counting, the unfolding-based comparator of Lam et al. (DAC 1993), a
// path delay fault test generator and classifier, logic/timing
// simulation, PLA synthesis, and deterministic benchmark generators.
//
// # Quick start
//
//	c, err := rdfault.ParseBench("mine", file)
//	...
//	report, err := rdfault.Identify(c, rdfault.Heuristic2, rdfault.Options{})
//	fmt.Printf("%v of %v logical paths are robust dependent (%.2f%%)\n",
//	    report.RD, report.TotalLogicalPaths, report.RDPercent())
//
// The identified RD-set is sound by construction: the enumeration only
// ever over-approximates the set of paths that must be kept, so every
// path it reports as RD genuinely needs no test.
package rdfault

import (
	"io"
	"math/big"

	"rdfault/internal/analysis"
	"rdfault/internal/bdd"
	"rdfault/internal/circuit"
	"rdfault/internal/core"
	"rdfault/internal/dft"
	"rdfault/internal/fsim"
	"rdfault/internal/gen"
	"rdfault/internal/leafdag"
	"rdfault/internal/paths"
	"rdfault/internal/pathsel"
	"rdfault/internal/pla"
	"rdfault/internal/seal"
	"rdfault/internal/sim"
	"rdfault/internal/stabilize"
	"rdfault/internal/synth"
	"rdfault/internal/tgen"
	"rdfault/internal/timing"
	"rdfault/internal/verilog"
)

// Circuit is an immutable combinational netlist; see Builder and
// ParseBench for construction.
type Circuit = circuit.Circuit

// Builder incrementally constructs a Circuit.
type Builder = circuit.Builder

// GateID identifies a gate within a Circuit.
type GateID = circuit.GateID

// GateType enumerates gate kinds.
type GateType = circuit.GateType

// Gate types.
const (
	Input  = circuit.Input
	Output = circuit.Output
	Buf    = circuit.Buf
	Not    = circuit.Not
	And    = circuit.And
	Or     = circuit.Or
	Nand   = circuit.Nand
	Nor    = circuit.Nor
)

// Lead identifies a wire by the gate input pin it feeds.
type Lead = circuit.Lead

// InputSort is a total order of every gate's input pins (Definition 7);
// it induces the complete stabilizing assignment σ^π.
type InputSort = circuit.InputSort

// Path is a physical PI-to-PO path; Logical pairs it with a transition.
type (
	Path    = paths.Path
	Logical = paths.Logical
)

// NewBuilder returns a Builder for a circuit with the given name.
func NewBuilder(name string) *Builder { return circuit.NewBuilder(name) }

// ParseBench reads an ISCAS-style ".bench" netlist (XOR/XNOR expanded to
// simple gates).
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	return circuit.ParseBench(name, r)
}

// WriteBench writes a circuit in ".bench" format.
func WriteBench(w io.Writer, c *Circuit) error { return circuit.WriteBench(w, c) }

// ParseVerilog reads a gate-level structural Verilog module (primitives
// and/or/nand/nor/not/buf).
func ParseVerilog(name string, r io.Reader) (*Circuit, error) {
	return verilog.Parse(name, r)
}

// WriteVerilog writes a circuit as a structural Verilog module.
func WriteVerilog(w io.Writer, c *Circuit) error { return verilog.Write(w, c) }

// CountPaths returns the exact number of logical paths in c (twice the
// physical count; arbitrary precision — c6288-style circuits exceed
// int64). The count is computed once per circuit and served from the
// analysis manager thereafter; the returned big.Int is caller-owned.
func CountPaths(c *Circuit) *big.Int { return analysis.For(c).CopyLogical() }

// Criterion selects the sensitization conditions Enumerate checks; see
// the core package constants re-exported here.
type Criterion = core.Criterion

// Sensitization criteria.
const (
	// FS checks functional sensitizability (Definition 4).
	FS = core.FS
	// SigmaPi checks membership in LP(σ^π) (Lemma 2); requires a sort.
	SigmaPi = core.SigmaPi
	// NonRobust checks non-robust testability (Definition 5).
	NonRobust = core.NonRobust
)

// Options tunes Enumerate and Identify, including the resilience knobs:
// Context/Deadline interrupt a run gracefully and Checkpoint resumes one.
type Options = core.Options

// Result reports one enumeration pass; Result.Status says how it ended.
type Result = core.Result

// Status classifies how an enumeration run ended.
type Status = core.Status

// Enumeration statuses. Only StatusComplete proves an RD count; an
// interrupted run (StatusDeadline, StatusCanceled) hands back a
// resumable Checkpoint instead, and StatusDegraded marks counters
// tainted by a worker panic.
const (
	StatusComplete  = core.StatusComplete
	StatusTruncated = core.StatusTruncated
	StatusDeadline  = core.StatusDeadline
	StatusCanceled  = core.StatusCanceled
	StatusDegraded  = core.StatusDegraded
)

// Sentinel errors of the enumeration stack; match with errors.Is.
var (
	ErrDeadline    = core.ErrDeadline
	ErrCanceled    = core.ErrCanceled
	ErrWorkerPanic = core.ErrWorkerPanic
)

// WorkerError is the crash report of one panicked enumeration worker.
type WorkerError = core.WorkerError

// Checkpoint is the serialized frontier of an interrupted enumeration.
// Resuming from it (Options.Checkpoint) reproduces the uninterrupted
// run's counters exactly.
type Checkpoint = core.Checkpoint

// ErrCorruptCheckpoint is the sentinel for a checkpoint whose bytes
// cannot be trusted (truncation, garbage, trailing junk, or any change
// that breaks the checkpoint's checksum); match with errors.Is. Every
// checkpoint carries that checksum, so a corrupt one is never decoded
// into a resumable state that differs from what was written.
var ErrCorruptCheckpoint = core.ErrCorruptCheckpoint

// CorruptCheckpointError reports what failed (Kind, which errors.Is
// matches against ErrCorruptCheckpoint), where (path, byte offset) and
// why a checkpoint failed to decode. It is the one corrupt-record error
// of every sealed format.
type CorruptCheckpointError = seal.CorruptError

// ReadCheckpointFile loads a checkpoint written by WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	return core.ReadCheckpointFile(path)
}

// WriteCheckpointFile atomically writes cp, sealed, to path.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	return core.WriteCheckpointFile(path, cp)
}

// Enumerate runs Algorithm 2: implicit enumeration of all logical paths
// with prime-segment pruning under the given criterion.
func Enumerate(c *Circuit, cr Criterion, opt Options) (*Result, error) {
	return core.Enumerate(c, cr, opt)
}

// Heuristic selects the input sort used by Identify.
type Heuristic = core.Heuristic

// Identification heuristics (Table I columns).
const (
	HeuristicFUS      = core.HeuristicFUS
	Heuristic1        = core.Heuristic1
	Heuristic2        = core.Heuristic2
	Heuristic2Inverse = core.Heuristic2Inverse
	HeuristicPinOrder = core.HeuristicPinOrder
)

// Report is the outcome of a full RD identification run.
type Report = core.Report

// Identify runs the paper's full pipeline: choose an input sort with the
// given heuristic, then enumerate LP^sup(σ^π); everything outside is
// robust dependent.
func Identify(c *Circuit, h Heuristic, opt Options) (*Report, error) {
	return core.Identify(c, h, opt)
}

// Heuristic1Sort orders gate inputs by path counts (Section V).
func Heuristic1Sort(c *Circuit) InputSort { return core.Heuristic1Sort(c) }

// Heuristic2Sort orders gate inputs by |FS_c^sup \ T_c^sup| (Algorithm 3).
// The two returned Results are the measurement passes.
func Heuristic2Sort(c *Circuit) (InputSort, *Result, *Result, error) {
	return core.Heuristic2Sort(c)
}

// Heuristic2SortWorkers is Heuristic2Sort with a worker budget: the two
// Algorithm 3 passes run concurrently and internally parallel. The sort
// is identical for every worker count.
func Heuristic2SortWorkers(c *Circuit, workers int) (InputSort, *Result, *Result, error) {
	return core.Heuristic2SortWorkers(c, workers)
}

// PinOrderSort returns the identity input sort.
func PinOrderSort(c *Circuit) InputSort { return circuit.PinOrderSort(c) }

// SCOAPSort orders gate inputs by SCOAP testability measures — the
// library's extension heuristic alongside the paper's two. Measures and
// sort are computed once per circuit (analysis manager); the returned
// sort is shared, treat it as read-only.
func SCOAPSort(c *Circuit) InputSort { return analysis.For(c).SCOAPSort() }

// RDCertificate is the compact prime-segment certificate of an RD-set.
type RDCertificate = core.Certificate

// CollectRDSegments runs the SigmaPi enumeration and returns the compact
// RD certificate: pruned prime segments whose extensions are exactly the
// identified RD paths.
func CollectRDSegments(c *Circuit, sort InputSort, opt Options) (*RDCertificate, error) {
	return core.CollectRDSegments(c, sort, opt)
}

// UnfoldingOptions tunes IdentifyByUnfolding.
type UnfoldingOptions = leafdag.Options

// UnfoldingReport is the result of IdentifyByUnfolding.
type UnfoldingReport = leafdag.Report

// IdentifyByUnfolding runs the leaf-dag approach of Lam et al. [1]: exact
// stuck-at redundancy identification on the fanout-free unfolding. Much
// slower than Identify but of slightly higher quality — the Table III
// comparator.
func IdentifyByUnfolding(c *Circuit, opt UnfoldingOptions) (*UnfoldingReport, error) {
	return leafdag.IdentifyRD(c, opt)
}

// StabilizingSystem runs Algorithm 1 for input vector v (Inputs() order);
// a nil chooser picks the first controlling input.
func StabilizingSystem(c *Circuit, v []bool, choose stabilize.Chooser) *stabilize.System {
	return stabilize.Compute(c, v, choose)
}

// ChooseBySort returns the Algorithm 1 chooser realizing σ^π.
func ChooseBySort(s InputSort) stabilize.Chooser { return stabilize.ChooseBySort(s) }

// Generator produces and classifies two-pattern path delay fault tests.
type Generator = tgen.Generator

// Test is a two-pattern test.
type Test = tgen.Test

// Class is a path's strongest test class.
type Class = tgen.Class

// Test classes, strongest last.
const (
	Unsensitizable   = tgen.Unsensitizable
	FuncSensitizable = tgen.FuncSensitizable
	NonRobustClass   = tgen.NonRobust
	Robust           = tgen.Robust
)

// NewGenerator returns a test generator for c.
func NewGenerator(c *Circuit) *Generator { return tgen.NewGenerator(c) }

// Delays assigns per-gate propagation delays (a simulated manufactured
// implementation).
type Delays = sim.Delays

// UnitDelays gives every internal gate delay 1.
func UnitDelays(c *Circuit) Delays { return sim.UnitDelays(c) }

// RandomDelays draws gate delays uniformly from [min, max).
func RandomDelays(c *Circuit, seed int64, min, max float64) Delays {
	return sim.RandomDelays(c, seed, min, max)
}

// Simulate runs the event-driven two-pattern timing simulation.
func Simulate(c *Circuit, d Delays, v1, v2 []bool) *sim.TimingResult {
	return sim.Simulate(c, d, v1, v2)
}

// PLACover is a two-level cover in Espresso semantics.
type PLACover = pla.Cover

// ParsePLA reads an Espresso ".pla" file.
func ParsePLA(name string, r io.Reader) (*PLACover, error) { return pla.Parse(name, r) }

// SynthOptions tunes Synthesize.
type SynthOptions = synth.Options

// Synthesize compiles a two-level cover into a multi-level circuit
// (divisor extraction + tree decomposition) — the stand-in for SIS
// script.rugged.
func Synthesize(cv *PLACover, opt SynthOptions) (*Circuit, error) {
	return synth.Synthesize(cv, opt)
}

// PaperExample returns the reconstruction of the paper's running example
// circuit (Figures 1-5).
func PaperExample() *Circuit { return gen.PaperExample() }

// Equivalent reports whether two circuits compute the same functions
// (exact, via BDDs; inputs matched positionally).
func Equivalent(a, b *Circuit) (bool, error) { return bdd.Equivalent(a, b) }

// RemoveRedundant folds functionally redundant gates to constants (BDD-
// verified) and returns the swept, equivalent circuit plus the number of
// gates removed. Redundancy is the dominant source of RD paths, making
// this the natural pre-synthesis ablation.
func RemoveRedundant(c *Circuit, maxInputs int) (*Circuit, int, error) {
	return synth.RemoveRedundant(c, maxInputs)
}

// TimingAnalysis is a static timing analysis (arrival/departure times,
// critical delay, longest-path extraction).
type TimingAnalysis = timing.Analysis

// AnalyzeTiming computes static timing for c under d, cached per
// (circuit, delay vector) by the analysis manager; repeated analyses of
// the same corner are free. The returned analysis is shared — read-only.
func AnalyzeTiming(c *Circuit, d Delays) *TimingAnalysis { return analysis.For(c).Timing(d) }

// Selector runs the Section VI path selection strategies (threshold and
// per-lead) restricted to non-RD paths.
type Selector = pathsel.Selector

// SelectOptions configures NewSelector and its strategies.
type SelectOptions = pathsel.Options

// NewSelector prepares RD identification and timing analysis for path
// selection.
func NewSelector(c *Circuit, d Delays, opt SelectOptions) (*Selector, error) {
	return pathsel.NewSelector(c, d, opt)
}

// FaultSimulator determines which logical paths a two-pattern test
// detects robustly and non-robustly.
type FaultSimulator = fsim.Simulator

// NewFaultSimulator returns a fault simulator for c.
func NewFaultSimulator(c *Circuit) *FaultSimulator { return fsim.New(c) }

// CompactOptions tunes CompactTests.
type CompactOptions = fsim.CompactOptions

// TestCoverage summarizes a CompactTests run.
type TestCoverage = fsim.Coverage

// CompactTests builds a compact test set for the target paths via
// generate-and-drop fault simulation (robust first, optionally falling
// back to non-robust tests).
func CompactTests(c *Circuit, targets []Logical, gn *Generator, opt CompactOptions) ([]Test, TestCoverage) {
	return fsim.CompactTests(c, targets, gn, opt)
}

// DFTProposal is a control-point suggestion for an untestable kept path.
type DFTProposal = dft.Proposal

// ProposeControlPoints analyses untestable paths and suggests control
// points at their blocking side inputs.
func ProposeControlPoints(c *Circuit, untestable []Logical) []DFTProposal {
	return dft.Propose(c, untestable)
}

// ProposeObservePoints suggests observation taps: the deepest on-path
// gate up to which each untestable path is still sensitizable.
func ProposeObservePoints(c *Circuit, untestable []Logical) []GateID {
	return dft.ProposeObservePoints(c, untestable)
}

// InsertObservePoints taps the listed gates with fresh primary outputs,
// leaving the original function untouched.
func InsertObservePoints(c *Circuit, gates []GateID) (*Circuit, error) {
	return dft.InsertObservePoints(c, gates)
}

// ReduceTests statically compacts a test set by reverse-order
// elimination, preserving the targets' detection coverage.
func ReduceTests(c *Circuit, tests []Test, targets []Logical, allowNonRobust bool) []Test {
	return fsim.ReduceTests(c, tests, targets, allowNonRobust)
}

// InsertControlPoints applies the proposals, returning a circuit with
// extra test-mode inputs that preserves the original function when they
// are 0.
func InsertControlPoints(c *Circuit, props []DFTProposal) (*Circuit, error) {
	return dft.Insert(c, props)
}

// ForEachLogicalPath enumerates every logical path of c; the Path buffer
// is shared, Clone to retain. Enumeration stops when fn returns false.
func ForEachLogicalPath(c *Circuit, fn func(Logical) bool) bool {
	return paths.ForEachLogical(c, fn)
}
