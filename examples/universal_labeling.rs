//! Universal matching (paper §I): label *every* VID in the corpus with
//! its EID up front, so that future queries are plain index lookups —
//! "After universal labeling, it will be more efficient to do future
//! queries because all the EV raw data has been processed and indexed.
//! Note that the larger the matching size is, the less time it costs per
//! EID-VID pair."
//!
//! The example measures that per-pair economy directly: single matches
//! vs a 50-EID batch vs the universal run, then serves a fused E+V query
//! from the universal index.
//!
//! ```text
//! cargo run --release --example universal_labeling
//! ```

use evmatch::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let config = DatasetConfig {
        population: 250,
        duration: 400,
        ..DatasetConfig::default()
    };
    let dataset = EvDataset::generate(&config).expect("valid config");
    let matcher = EvMatcher::new(&dataset.estore, &dataset.video, MatcherConfig::default());

    // --- Elastic matching sizes: 1, 50, universal. ---
    let one = sample_targets(&dataset, 1, 3)
        .into_iter()
        .next()
        .expect("non-empty");
    dataset.video.reset_usage();
    let t = Instant::now();
    let single = matcher
        .match_one(one)
        .expect("generated footage is resident");
    println!(
        "single EID:   {:>4} scenarios, {:>8.1?} total ({:.1?} per pair)",
        single.selected_count(),
        t.elapsed(),
        t.elapsed(),
    );

    let batch = sample_targets(&dataset, 50, 3);
    dataset.video.reset_usage();
    let t = Instant::now();
    let multi = matcher
        .match_many(&batch)
        .expect("sequential mode cannot fail");
    println!(
        "50 EIDs:      {:>4} scenarios, {:>8.1?} total ({:.1?} per pair)",
        multi.selected_count(),
        t.elapsed(),
        t.elapsed() / 50,
    );

    dataset.video.reset_usage();
    let t = Instant::now();
    let universal = matcher
        .match_universal()
        .expect("sequential mode cannot fail");
    let n = universal.outcomes.len() as u32;
    println!(
        "universal:    {:>4} scenarios, {:>8.1?} total ({:.1?} per pair, {} EIDs)",
        universal.selected_count(),
        t.elapsed(),
        t.elapsed() / n.max(1),
        n,
    );

    let stats = score_report(&dataset, &universal);
    println!("universal labeling accuracy: {:.1}%", stats.percent());

    // --- The fused index: one query returns E and V info together. ---
    let index: BTreeMap<Eid, Vid> = universal
        .outcomes
        .iter()
        .filter_map(|o| o.vid.map(|v| (o.eid, v)))
        .collect();
    let query = one;
    println!("\nfused query for {query}:");
    match index.get(&query) {
        None => println!("  no visual identity on file"),
        Some(vid) => {
            println!("  visual identity: {vid}");
            // E-side: where the device was heard.
            let e_hits = dataset.estore.containing(query).count();
            println!("  electronic trail: {e_hits} scenario(s) heard the device");
            // V-side: where the person was filmed (within processed footage).
            let v_hits = universal
                .selected_scenarios
                .iter()
                .filter_map(|&id| dataset.video.extract(id))
                .filter(|v| v.contains(*vid))
                .count();
            println!("  visual trail: {v_hits} processed scenario(s) show the person");
        }
    }
}
