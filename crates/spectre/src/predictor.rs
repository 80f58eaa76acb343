//! A pattern-history-table branch predictor with 2-bit saturating counters.
//!
//! Spectre v1 relies on nothing more exotic than this: train the conditional
//! branch toward "in bounds", then supply an out-of-bounds index so the
//! frontend speculatively fetches and executes the gadget.

/// Prediction state of one 2-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[expect(
    clippy::enum_variant_names,
    reason = "canonical 2-bit-counter state names"
)]
enum Counter {
    StrongNotTaken,
    WeakNotTaken,
    WeakTaken,
    StrongTaken,
}

impl Counter {
    fn predict(self) -> bool {
        matches!(self, Counter::WeakTaken | Counter::StrongTaken)
    }

    fn update(self, taken: bool) -> Counter {
        use Counter::*;
        match (self, taken) {
            (StrongNotTaken, true) => WeakNotTaken,
            (WeakNotTaken, true) => WeakTaken,
            (WeakTaken, true) => StrongTaken,
            (StrongTaken, true) => StrongTaken,
            (StrongNotTaken, false) => StrongNotTaken,
            (WeakNotTaken, false) => StrongNotTaken,
            (WeakTaken, false) => WeakNotTaken,
            (StrongTaken, false) => WeakTaken,
        }
    }
}

/// A direct-mapped pattern history table of 2-bit counters.
///
/// # Examples
///
/// ```
/// use leaky_spectre::BranchPredictor;
///
/// let mut bp = BranchPredictor::new(256);
/// let pc = 0x401000;
/// for _ in 0..3 {
///     bp.update(pc, true); // train taken
/// }
/// assert!(bp.predict(pc));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    table: Vec<Counter>,
}

impl BranchPredictor {
    /// Creates a predictor with `entries` counters (rounded up to a power of
    /// two), initialised weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "predictor needs at least one entry");
        BranchPredictor {
            table: vec![Counter::WeakNotTaken; entries.next_power_of_two()],
        }
    }

    fn index(&self, pc: u64) -> usize {
        // Low PC bits above the 2-byte alignment select the entry.
        ((pc >> 2) as usize) & (self.table.len() - 1)
    }

    /// Predicted direction for the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)].predict()
    }

    /// Records the resolved direction, returning whether the prediction was
    /// correct (i.e. `false` = misprediction = transient window opened).
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let predicted = self.table[idx].predict();
        self.table[idx] = self.table[idx].update(taken);
        predicted == taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_flips_prediction() {
        let mut bp = BranchPredictor::new(64);
        assert!(!bp.predict(0x1000));
        bp.update(0x1000, true);
        bp.update(0x1000, true);
        assert!(bp.predict(0x1000));
    }

    #[test]
    fn two_bit_hysteresis() {
        let mut bp = BranchPredictor::new(64);
        for _ in 0..4 {
            bp.update(0x40, true);
        }
        // One not-taken outcome must not flip a strongly-taken counter.
        bp.update(0x40, false);
        assert!(bp.predict(0x40));
        bp.update(0x40, false);
        assert!(!bp.predict(0x40));
    }

    #[test]
    fn update_reports_misprediction() {
        let mut bp = BranchPredictor::new(64);
        for _ in 0..3 {
            bp.update(0x80, true);
        }
        // Trained taken; a not-taken resolution is a misprediction.
        assert!(!bp.update(0x80, false), "must report misprediction");
        assert!(bp.update(0x200, false), "cold counter predicts not-taken");
    }

    #[test]
    fn distinct_branches_do_not_alias_in_small_ranges() {
        let mut bp = BranchPredictor::new(256);
        bp.update(0x1000, true);
        bp.update(0x1000, true);
        assert!(bp.predict(0x1000));
        assert!(!bp.predict(0x1004), "neighbouring branch untrained");
    }
}
