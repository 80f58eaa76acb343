//! Determinism-critical fixture crate: the seeded `wall-clock` violation
//! (the unordered-collections seed lives in the store fixture crate).

pub fn stamp() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}
