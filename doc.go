// Package unilocal is a Go reproduction of Amos Korman, Jean-Sébastien
// Sereni and Laurent Viennot, "Toward more localized local algorithms:
// removing assumptions concerning global knowledge" (PODC 2011; Distributed
// Computing 26(5-6), 2013).
//
// The repository implements the LOCAL model of distributed computing, the
// paper's pruning-algorithm framework, the transformers of Theorems 1-5
// (non-uniform to uniform, Monte Carlo to Las Vegas, weakly dominated
// parameters, fastest-of-k, and the strong-list-coloring construction), the
// Section 5.1 clique-product coloring, and the concrete algorithm stacks
// behind every row of the paper's Table 1 — Linial's color reduction,
// batched color reductions, MIS via color classes, Luby's MIS, H-partition
// MIS for bounded arboricity, sequential greedy MIS, line-graph matching
// and edge coloring, and ruling sets.
//
// See DESIGN.md for the system inventory, the simulation-engine
// architecture (CSR graph storage, flat message lanes, active-node
// frontier, persistent worker pool — DESIGN.md §2) and the per-experiment
// index (§3), EXPERIMENTS.md for measured reproductions of Table 1 and
// Figure 1, and the examples/ directory for runnable entry points. The
// implementation lives under internal/. Every workload is a declarative
// scenario spec (DESIGN.md §2.7): the paper's experiments are the specs in
// scenarios/paper, which cmd/localbench runs by default to regenerate the
// evaluation (BenchmarkPaper in bench_test.go runs the same specs), and the
// corpus under scenarios/ (cmd/localbench -scenarios scenarios/,
// cmd/scenarioctl) opens the workload beyond them. The same scenario stack is
// served by the long-lived cmd/localserved service (internal/serve,
// DESIGN.md §2.8): clients POST one spec each and receive the deterministic
// document, with request cancellation threaded into the engine's round loop
// and the graph corpus bounded by LRU eviction. With -spool the service
// additionally mounts the durable async job API (internal/job, DESIGN.md
// §2.10): submissions are journaled to a crash-safe spool, executions
// checkpoint at shard boundaries and resume across restarts — even after
// SIGKILL — with byte-identical recovered documents, progress streams over
// SSE, and duplicate submissions coalesce onto one execution.
package unilocal
