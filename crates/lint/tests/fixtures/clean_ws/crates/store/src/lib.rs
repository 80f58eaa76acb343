//! Result-store fixture crate: the same violation site as bad_ws,
//! escaped on its own line.

pub fn index() -> usize {
    // lint: allow(unordered-collections) — membership only, never iterated
    let seen = HashSet::new();
    seen.len()
}

pub fn capacity() -> usize {
    // lint: allow(stale-allow) — twin: the escape below is deliberately dead
    16 // lint: allow(wall-clock) — stale: nothing here reads a clock
}
