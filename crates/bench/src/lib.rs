//! # harp-bench
//!
//! The experiment harness. The `repro` binary runs the table in
//! [`experiments`]: one entry per table or figure of the paper's
//! evaluation, each holding the paper's claims as data ([`scoreboard`])
//! and a `run` function that measures them on one shared [`lab::Lab`]
//! (datasets, oracle memo and model zoo, all in memory for the run).
//! `bench_serve` and `bench_lifecycle` are CI gates over the serving fleet
//! and the lifecycle loop; `bench_profile` prints per-op time tables. The
//! engine's speed is measured in one place, the repo benchmark under
//! `benchmark/`. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub mod data;
pub mod drill;
pub mod experiments;
pub mod lab;
pub mod report;
pub mod scoreboard;
pub mod zoo;
