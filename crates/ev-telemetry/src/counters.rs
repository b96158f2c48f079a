//! The shared index/cache counter triple.
//!
//! Every matching pipeline (`ev_matching::StageTimings`) reports how
//! much work the index/cache layer absorbed. The type lives here, next
//! to the canonical metric names, so there is exactly one definition
//! and one export path into the registry.

use crate::metrics::MetricsRegistry;
use crate::names;
use serde::{Deserialize, Serialize};

/// Usage counters of the index/cache layer across one pipeline run.
///
/// The E stage reads the scenario store through its inverted index; the
/// V stage reads footage through a gallery cache. These counters say
/// how much work those layers absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IndexCounters {
    /// Posting lists fetched from the inverted scenario index.
    pub postings_probed: u64,
    /// V-Scenario galleries served from cache without re-extraction.
    pub cache_hits: u64,
    /// Full-store scans avoided by index-backed lookups.
    pub scans_avoided: u64,
}

impl IndexCounters {
    /// Adds the triple to the canonical `evm_index_*` counters.
    pub fn record_to(&self, registry: &MetricsRegistry) {
        registry
            .counter(names::INDEX_POSTINGS_PROBED)
            .add(self.postings_probed);
        registry
            .counter(names::INDEX_CACHE_HITS)
            .add(self.cache_hits);
        registry
            .counter(names::INDEX_SCANS_AVOIDED)
            .add(self.scans_avoided);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_to_exports_every_field() {
        let counters = IndexCounters {
            postings_probed: 5,
            cache_hits: 6,
            scans_avoided: 7,
        };
        let registry = MetricsRegistry::new();
        counters.record_to(&registry);
        let snapshot = registry.snapshot();
        let total: u64 = snapshot.counters.values().sum();
        assert_eq!(total, 5 + 6 + 7);
        // One exported counter per serialized field.
        let field_count = serde_json::to_value(&counters).as_obj().unwrap().len();
        assert_eq!(snapshot.counters.len(), field_count);
    }
}
