//! Result-store fixture crate: two seeded violations. The store's
//! directory listings feed resume decisions, so it is determinism-lint
//! territory like the sweep crates.

pub fn index() -> usize {
    let seen = HashSet::new();
    seen.len()
}

pub fn capacity() -> usize {
    16 // lint: allow(wall-clock) — stale: nothing here reads a clock
}
