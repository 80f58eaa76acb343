//! Determinism-critical fixture crate: the same violation site as
//! bad_ws, escaped on its own line.

pub fn stamp() -> u64 {
    let t = Instant::now(); // lint: allow(wall-clock) — operator telemetry only
    t.elapsed().as_nanos() as u64
}
