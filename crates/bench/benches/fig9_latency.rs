//! Figure 9 (headline result): normalized circuit latency of every compilation
//! strategy over the whole benchmark suite, plus the §6.4 encoding-scheme
//! comparison (aggregation vs hand-optimization ratios).

use qcc_bench::{banner, geometric_mean, latency_for, render_table, scale_from_env};
use qcc_core::Strategy;
use qcc_workloads::standard_suite;

fn main() {
    banner(
        "Figure 9 — normalized circuit latency per compilation strategy",
        "Fig. 9 and §6.4",
    );
    let suite = standard_suite(scale_from_env(), 2019);
    let width = 10;
    let reported: Vec<Strategy> = Strategy::all()
        .into_iter()
        .filter(|s| *s != Strategy::IsaBaseline)
        .collect();

    let mut rows = Vec::new();
    let mut speedups_full = Vec::new();
    let mut speedups_hand = Vec::new();
    let mut encoding_rows = Vec::new();

    for bench in &suite {
        let latencies: Vec<(Strategy, f64)> = Strategy::all()
            .into_iter()
            .map(|s| (s, latency_for(&bench.circuit, s, width)))
            .collect();
        let latency = |strategy: Strategy| -> f64 {
            latencies
                .iter()
                .find(|(s, _)| *s == strategy)
                .map(|(_, l)| *l)
                .expect("every strategy is swept")
        };
        let isa = latency(Strategy::IsaBaseline);
        let norm = |strategy: Strategy| -> f64 { latency(strategy) / isa };
        let full = norm(Strategy::ClsAggregation);
        let hand = norm(Strategy::ClsHandOptimized);
        speedups_full.push(1.0 / full);
        speedups_hand.push(1.0 / hand);
        encoding_rows.push(vec![
            bench.name.clone(),
            format!("{:.2}", (1.0 / full) / (1.0 / hand)),
        ]);
        let mut row = vec![bench.name.clone(), format!("{:.1}", isa)];
        row.extend(reported.iter().map(|&s| format!("{:.3}", norm(s))));
        rows.push(row);
    }

    let mut headers: Vec<&str> = vec!["benchmark", "ISA latency (ns)"];
    headers.extend(reported.iter().map(|s| s.name()));
    println!("{}", render_table(&headers, &rows));
    println!(
        "Geometric-mean speedup of CLS+Aggregation over ISA: {:.2}x   (paper: 5.07x)",
        geometric_mean(&speedups_full)
    );
    println!(
        "Geometric-mean speedup of CLS+HandOpt over ISA:     {:.2}x   (paper: 2.34x)",
        geometric_mean(&speedups_hand)
    );
    println!(
        "Maximum speedup of CLS+Aggregation:                 {:.2}x   (paper: up to ~10x)\n",
        speedups_full.iter().cloned().fold(0.0, f64::max)
    );

    println!("§6.4 — advantage of aggregation over hand optimization by encoding scheme");
    println!("(paper: ~1x for MAXCUT-line, 3.12x for UCCSD-n4, 3.68x for square-root):");
    println!(
        "{}",
        render_table(
            &["benchmark", "CLS+Agg speedup / HandOpt speedup"],
            &encoding_rows
        )
    );
}
