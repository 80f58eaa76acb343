//! The workspace's one serialization leaf, std only: every artifact is
//! written and read through [`json`] (string and number writers, strict
//! reader) and [`token`] (the hex token of the line formats), tagged
//! from the [`schema`] table, while each renderer keeps its own layout.
//! DESIGN.md §7 states the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod schema;
pub mod token;
