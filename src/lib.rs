//! # sp-system — a validation framework for the long-term preservation of
//! high energy physics data
//!
//! A complete Rust reproduction of the software-preservation system
//! described by D. Ozerov and D. M. South (DESY), *"A Validation Framework
//! for the Long Term Preservation of High Energy Physics Data"*
//! (arXiv:1310.7814): the **sp-system** that automatically builds and
//! validates experiment software against changes to the computing
//! environment, keeping decades-old data analysable.
//!
//! This crate is the façade: it re-exports the workspace crates and hosts
//! the runnable examples and cross-crate integration tests.
//!
//! ## Quick start
//!
//! ```
//! use sp_system::core::{RunConfig, SpSystem};
//! use sp_system::env::{catalog, Version};
//!
//! // A system with one SL6 image and the HERMES experiment.
//! let system = SpSystem::new();
//! let image = system
//!     .register_image(catalog::sl6_gcc44(Version::two(5, 34)))
//!     .unwrap();
//! system
//!     .register_experiment(sp_system::experiments::hermes_experiment())
//!     .unwrap();
//!
//! // One validation run: build everything, run every test, keep outputs.
//! let config = RunConfig { scale: 0.1, ..RunConfig::default() };
//! let run = system.run_validation("hermes", image, &config).unwrap();
//! assert!(run.is_successful());
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`core`] | the validation framework: tests, runs, comparison, classification, workflow, campaigns |
//! | [`env`](mod@env) | simulated environments: OS releases, compilers, externals, VM images |
//! | [`build`] | package model, dependency graphs, simulated builds |
//! | [`hep`] | the toy HEP chain: MC generation → simulation → reconstruction → analysis |
//! | [`exec`] | virtual clock, cron, jobs, clients, chain DAGs |
//! | [`store`] | content-addressed common storage, archives, the frozen-image vault |
//! | [`experiments`] | the synthetic H1, ZEUS and HERMES stacks |
//! | [`obs`] | observability: metrics registry, timing spans, run-history query engine |
//! | [`report`] | status matrices, HTML pages, JSON export, run-history dashboards |

pub use sp_build as build;
pub use sp_core as core;
pub use sp_env as env;
pub use sp_exec as exec;
pub use sp_experiments as experiments;
pub use sp_hep as hep;
pub use sp_obs as obs;
pub use sp_report as report;
pub use sp_store as store;
