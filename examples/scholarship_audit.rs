//! Scholarship audit: the paper’s motivating scenario on the Student
//! Performance workload.
//!
//! A committee awards scholarships to the top-k students by final math
//! grade. We audit the ranking with the paper’s default parameters
//! (τs = 50, k ∈ [10, 49], step bounds 10/20/30/40) and also demonstrate
//! the automatic τs suggestion and the upper-bound (over-representation)
//! task in both scopes.
//!
//! Run with: `cargo run --release --example scholarship_audit`

use rankfair::core::{lower_most_specific_single_k, render_report, suggest_tau, SearchStats};
use rankfair::prelude::*;

fn main() {
    let w = student_workload(0, 42); // 395 students, paper size
    println!(
        "Workload `{}`: {} students, {} pattern attributes, ranked by {}\n",
        w.name,
        w.detection.n_rows(),
        w.detection.categorical_columns().len(),
        w.ranker_name
    );
    let audit = w.audit().unwrap();

    // The paper suggests exploring thresholds automatically (§VIII).
    let suggested = suggest_tau(audit.index(), audit.space(), 0.25);
    println!("Suggested τs at the 25% quantile of level-1 group sizes: {suggested}");

    // Paper defaults: τs = 50, k ∈ [10, 49], L stepping 10/20/30/40.
    let cfg = DetectConfig::new(50, 10, 49);
    let task = AuditTask::UnderRep(BiasMeasure::GlobalLower(Bounds::paper_default()));
    let out = audit.run(&cfg, &task, Engine::Optimized).unwrap();
    let reports = audit.report(&out, &task);

    // Print a few representative k values rather than all forty.
    println!("\n=== Under-represented groups (global bounds) ===");
    for r in reports.iter().filter(|r| [10, 25, 49].contains(&r.k)) {
        print!("{}", render_report(std::slice::from_ref(r)));
    }
    println!(
        "\n{} (k, group) pairs reported across k ∈ [10, 49]; search examined {} patterns.",
        out.total_groups(),
        out.stats.patterns_examined()
    );

    // Proportional variant, α = 0.8 (paper default).
    let task = AuditTask::UnderRep(BiasMeasure::Proportional { alpha: 0.8 });
    let out_prop = audit.run(&cfg, &task, Engine::Optimized).unwrap();
    println!(
        "\nProportional (α = 0.8) reports {} (k, group) pairs; e.g. at k = 49:",
        out_prop.total_groups()
    );
    if let Some(kr) = out_prop.at_k(49) {
        for p in &kr.under {
            println!("  {}", audit.describe(p));
        }
    }

    // Over-representation task: groups exceeding U = 30 seats at k = 49
    // (most specific substantial patterns).
    let cfg49 = DetectConfig::new(50, 49, 49);
    let over_task = AuditTask::OverRep {
        upper: Bounds::constant(30),
        scope: OverRepScope::MostSpecific,
    };
    let over = audit.run(&cfg49, &over_task, Engine::Optimized).unwrap();
    // The paper's other §III variant: the most *specific* substantial
    // descriptions of who is missing — useful when an analyst wants the
    // narrowest actionable characterization instead of the broadest.
    let mut stats = SearchStats::default();
    let narrow = lower_most_specific_single_k(audit.index(), audit.space(), 50, 49, 40, &mut stats);
    println!(
        "\nMost specific substantial under-represented groups at k = 49: {} found, e.g.:",
        narrow.len()
    );
    for p in narrow.iter().take(3) {
        println!("  {}", audit.describe(p));
    }
    println!("\n=== Over-represented groups at k = 49 (count > 30, most specific) ===");
    let over49 = &over.per_k[0].over;
    for p in over49.iter().take(10) {
        let (sd, count) = audit.index().counts(p, 49);
        println!("  {:60} s_D = {sd:>3}, top-49 = {count}", audit.describe(p));
    }
    if over49.len() > 10 {
        println!("  ... and {} more", over49.len() - 10);
    }

    // The other scope: the most general groups over the same bound, the
    // broadest descriptions of who holds more than 30 of the 49 places.
    let general_task = AuditTask::OverRep {
        upper: Bounds::constant(30),
        scope: OverRepScope::MostGeneral,
    };
    let general = audit.run(&cfg49, &general_task, Engine::Optimized).unwrap();
    println!("\n=== Over-represented groups at k = 49 (count > 30, most general) ===");
    for p in &general.per_k[0].over {
        let (sd, count) = audit.index().counts(p, 49);
        println!("  {:60} s_D = {sd:>3}, top-49 = {count}", audit.describe(p));
    }
}
