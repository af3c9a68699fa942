// Package ckprivacy is a Go implementation of "Worst-Case Background
// Knowledge for Privacy-Preserving Data Publishing" (Martin, Kifer,
// Machanavajjhala, Gehrke, Halpern — ICDE 2007).
//
// The library answers two questions about bucketized (Anatomy-style)
// data publishing:
//
//  1. Checking: given a bucketization B and a bound k on the attacker's
//     background knowledge (k basic implications over the sensitive values,
//     on top of full identification information), what is the worst-case
//     probability the attacker can assign to any "person p has sensitive
//     value s" fact? MaxDisclosure computes this in O(|B|·k³) time via the
//     paper's MINIMIZE1/MINIMIZE2 dynamic programs, and Witness returns an
//     explicit worst-case knowledge formula.
//
//  2. Enforcing: among all full-domain generalizations of a table, find the
//     minimally sanitized ones whose maximum disclosure stays below a
//     threshold c — the paper's (c,k)-safety — via monotone lattice search,
//     binary search on chains (Theorem 14), or Incognito.
//
// The lattice searches run level-wise parallel when given a worker budget
// (ProblemOptions.Workers with NewProblemWithOptions, or -workers on the
// CLI): every
// not-yet-pruned node of one lattice height is evaluated concurrently and
// monotone pruning acts as a barrier between levels, so results — node
// sets, order, and search statistics — are byte-identical to the serial
// searches at any worker count. The same pool drives the experiment
// sweeps (RunFig5Config, RunFig6Config, RunSafetyGrid), the per-target
// risk profile and Monte-Carlo estimation.
//
// Quick start:
//
//	bz := ckprivacy.FromValues(
//		[]string{"flu", "flu", "lung", "lung", "mumps"},
//		[]string{"flu", "flu", "breast", "ovarian", "heart"},
//	)
//	d, _ := ckprivacy.MaxDisclosure(bz, 1) // 2/3
//
// The Engine behind MaxDisclosure memoizes MINIMIZE1 across calls (the
// paper's §3.3.3 incremental-recomputation remark): one entry per bucket
// histogram holds its MINIMIZE1 values for every atom count up to the
// largest k asked so far, built from one shared DP table and grown in
// place when a larger k asks, so a disclosure call costs one memo lookup
// per distinct histogram. The cache is sharded, keyed by a 64-bit
// fingerprint of the histogram, byte-bounded (EngineConfig.MemoMaxBytes,
// default 64 MiB) with CLOCK second-chance eviction and per-shard
// in-flight deduplication, so a long-lived engine serving many datasets
// plateaus in memory while racing workers compute each missing row
// exactly once. Eviction only ever costs recomputation: disclosure values
// are byte-identical at every capacity. Engine.Series answers every k up
// to a bound from one DP pass, each value bit-identical to MaxDisclosure
// at that k.
//
// Everything bucketization-heavy computes on a columnar substrate, and a
// Problem owns it: NewProblem dictionary-encodes the table once
// (per-attribute value dictionaries plus dense uint32 code columns),
// compiles each hierarchy to per-level code lookup tables, and turns
// bucketization into integer array work — packed integer group keys and
// code-space histograms — deriving coarser lattice nodes from finer
// cached ones by merging buckets instead of rescanning rows. Its
// searches use this state transparently; Bucketize is the one-shot form
// (encode, compile, scan once). Every path is byte-identical — same
// bucket keys, tuple order, histograms, search results and disclosure
// values — to a row-by-row string-path reference bucketizer that lives
// only in the tests, under randomized parity tests.
//
// Data streams in rather than arriving once: Problem.Append grows the
// dictionaries and code columns in place and patches every warm cached
// bucketization with just the appended rows — O(rows appended + buckets)
// per warm lattice node instead of a full re-encode and re-bucketize —
// while bumping the problem's version. Problem.Snapshot pins one version
// (rows, dictionaries, caches) for the duration of a search, so
// long-running jobs and concurrent appends never observe each other;
// randomized parity tests pin that append-then-search is byte-identical
// to a from-scratch rebuild on the concatenated table. The engine memo
// needs no append-time maintenance at all: it is keyed by histogram
// content, not dataset identity.
//
// The same checks are served over HTTP by the cmd/ckprivacyd daemon — a
// dataset registry, streaming appends, a sequential-release audit,
// asynchronous lattice-search jobs, durable storage and read replicas —
// which is a program, not part of this package's API; see the README's
// "Serving" section.
//
// The packages under internal/ hold the implementation: internal/core (the
// disclosure DP), internal/bucket, internal/hierarchy, internal/lattice,
// internal/parallel (the bounded worker pool behind the level-wise
// searches), internal/logic and internal/worlds (an exact,
// exponential-time random-worlds oracle used to validate the DP),
// internal/privacy, internal/anonymize, internal/dataset/adult (a
// synthetic stand-in for the UCI Adult dataset), internal/dataload (named
// dataset bundles shared by the CLI, the daemon and the registry),
// internal/server (the serving subsystem behind cmd/ckprivacyd) and
// internal/experiments (regenerates the paper's figures and sweeps (c,k)
// policy grids). This package re-exports the library's supported API
// surface.
package ckprivacy
