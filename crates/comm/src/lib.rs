//! Weak-communication network models and message-passing adaptations of the
//! MIS processes.
//!
//! The paper's processes are interesting precisely because they only need
//! *severely restricted* communication:
//!
//! * the 2-state process fits the **beeping model with sender collision
//!   detection** (full-duplex beeping, Cornejo & Kuhn 2010; Afek et al.
//!   2013): black vertices beep, white vertices listen, and a node only ever
//!   learns the single bit "did at least one neighbor beep?";
//! * the 3-state and 3-color processes fit the **synchronous stone age
//!   model** (Emek & Wattenhofer 2013): nodes transmit one letter from a
//!   constant alphabet per round and, per letter, can only distinguish
//!   "no neighbor sent it" from "at least one neighbor sent it".
//!
//! This crate provides the two channel primitives ([`beeping::beep_round`]
//! and [`stone_age::stone_age_round`]) and node-local adapters that
//! re-implement the processes **using only the channel feedback** — they
//! never read a neighbor's state directly. Each adapter implements
//! [`mis_core::Algorithm`], and the test suites prove *trace equivalence*: fed
//! the same seed and initial states, an adapter visits exactly the same
//! state sequence as the corresponding direct process from `mis-core`.
//!
//! # Example
//!
//! ```
//! use mis_comm::beeping::BeepingTwoStateMis;
//! use mis_core::{Algorithm, init::InitStrategy};
//! use mis_graph::{generators, mis_check};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
//! let g = generators::gnp(100, 0.08, &mut rng);
//! let mut net = BeepingTwoStateMis::with_init(&g, InitStrategy::Random, &mut rng);
//! net.run_to_stabilization(&mut rng, 100_000).unwrap();
//! assert!(mis_check::is_mis(&g, &net.black_set()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beeping;
pub mod factories;
pub mod stone_age;

pub use factories::register_comm_algorithms;
