//! The user-facing MapReduce programming model: mappers, reducers,
//! combiners, partitioners and the emitter.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Collects the `(key, value)` pairs a map task emits.
///
/// Pairs keep their emission order within a task; the shuffle stage makes
/// the overall ordering deterministic across scheduling interleavings.
#[derive(Debug)]
pub struct Emitter<K, V> {
    pairs: Vec<(K, V)>,
}

impl<K, V> Emitter<K, V> {
    pub(crate) fn new() -> Self {
        Emitter { pairs: Vec::new() }
    }

    /// Emits one intermediate pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }

    /// Number of pairs emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    pub(crate) fn into_pairs(self) -> Vec<(K, V)> {
        self.pairs
    }
}

/// Transforms one input record into intermediate `(key, value)` pairs.
///
/// A mapper must be deterministic given its input: a retry or a lineage
/// recompute may run the same task again and keep that attempt's output.
pub trait Mapper<I>: Sync {
    /// Intermediate key type.
    type Key;
    /// Intermediate value type.
    type Value;

    /// Processes one input record, emitting any number of pairs.
    fn map(&self, input: &I, out: &mut Emitter<Self::Key, Self::Value>);
}

/// Aggregates all values that were shuffled to one key.
pub trait Reducer<K, V>: Sync {
    /// Final output record type.
    type Output;

    /// Reduces one key group to zero or more output records. `values` are
    /// in deterministic shuffle order.
    fn reduce(&self, key: &K, values: &[V]) -> Vec<Self::Output>;
}

/// Optional map-side pre-aggregation, applied to each map task's output
/// before the shuffle to cut network volume (here: shuffle memory).
pub trait Combiner<K, V>: Sync {
    /// Combines one key's locally emitted values into fewer values.
    fn combine(&self, key: &K, values: Vec<V>) -> Vec<V>;
}

/// Decides which reduce partition a key belongs to.
pub trait Partitioner<K>: Sync {
    /// Maps `key` into `0..partitions`. Must be a pure function.
    fn partition(&self, key: &K, partitions: usize) -> usize;
}

/// The default partitioner: `hash(key) mod partitions`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl<K: Hash> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K, partitions: usize) -> usize {
        debug_assert!(partitions > 0);
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % partitions as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_preserves_order() {
        let mut e = Emitter::new();
        assert!(e.is_empty());
        e.emit("b", 1);
        e.emit("a", 2);
        assert_eq!(e.len(), 2);
        assert_eq!(e.into_pairs(), vec![("b", 1), ("a", 2)]);
    }

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        let p = HashPartitioner;
        for key in 0..1000u64 {
            let a = p.partition(&key, 7);
            let b = p.partition(&key, 7);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn hash_partitioner_spreads_keys() {
        let p = HashPartitioner;
        let mut counts = [0usize; 8];
        for key in 0..8000u64 {
            counts[p.partition(&key, 8)] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "partition starved: {counts:?}");
        }
    }
}
