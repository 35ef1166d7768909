//! The serving simulator end to end: an 8x8 fabricated chip pinned at its
//! deployment parameters, two tenants (steady Poisson + bursty on/off)
//! plus periodic background recalibration, simulated uncoalesced and then
//! with microbatch coalescing — every simulated dispatch executed on the
//! real chip through the pinned serving path, with the chip's query
//! counter reconciled against the simulated completion count.
//!
//! All timing is virtual, every random draw derives from the root seed,
//! and the report renderings are pure functions of the simulation state,
//! so this example prints **byte-identical** output on every run (ci.sh
//! checks that with `cmp`).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serving_sim
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::core::trace_summary;
use photon_zo::farm::CoalescePolicy;
use photon_zo::prelude::*;
use photon_zo::sim::{run_on_chip, RecalTraffic};

const ROOT_SEED: u64 = 4242;
/// 25 virtual ms of open-loop traffic.
const WINDOW_NS: u64 = 25_000_000;

fn workload(label: &str, coalescer: CoalescePolicy) -> SimConfig {
    SimConfig::new(ROOT_SEED, WINDOW_NS)
        .with_label(label)
        .with_workers(2)
        .with_coalescer(coalescer)
        .with_tenant(
            TenantLoad::new("steady", ArrivalProcess::Poisson { rate_hz: 250_000.0 })
                .with_queue_cap(1024),
        )
        .with_tenant(
            TenantLoad::new(
                "bursty",
                ArrivalProcess::Bursty {
                    on_rate_hz: 400_000.0,
                    off_rate_hz: 10_000.0,
                    mean_on_ns: 3_000_000.0,
                    mean_off_ns: 4_000_000.0,
                },
            )
            .with_queue_cap(1024),
        )
        .with_recalibration(RecalTraffic {
            start_ns: 5_000_000,
            period_ns: 10_000_000,
        })
}

fn main() {
    println!("photon-zo serving simulator demo");
    println!("================================");

    // A real 8x8 chip, pinned at its deployment parameters. The cost
    // model's virtual timings were calibrated on this mesh size.
    let mut rng = StdRng::seed_from_u64(ROOT_SEED);
    let arch = Architecture::single_mesh(8, 8).expect("8x8 single mesh");
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let theta = chip.init_params(&mut rng);
    chip.pin_compile_base(&theta);

    let (trace, sink) = TraceHandle::memory(0);
    let mut reports = Vec::new();
    for (label, policy) in [
        ("uncoalesced", CoalescePolicy::uncoalesced()),
        ("coalesced-16", CoalescePolicy::new(16, 100_000)),
    ] {
        let before = chip.query_count();
        let report = run_on_chip(&workload(label, policy), &chip);
        let spent = chip.query_count() - before;
        assert_eq!(
            Some(spent),
            report.chip_queries,
            "chip queries must reconcile with the simulation"
        );
        assert_eq!(report.chip_queries, Some(report.aggregate.completed));
        println!();
        print!("{}", report.render());
        report.emit(&trace);
        reports.push(report);
    }

    let un = &reports[0].aggregate;
    let co = &reports[1].aggregate;
    println!();
    println!(
        "coalescing lifted saturation throughput {:.2}x ({:.0} -> {:.0} rps) at p99 {:.1} -> {:.1} us",
        co.throughput_rps / un.throughput_rps,
        un.throughput_rps,
        co.throughput_rps,
        un.p99_ns / 1e3,
        co.p99_ns / 1e3,
    );

    println!();
    println!("telemetry summary");
    println!("-----------------");
    print!("{}", trace_summary(&sink.events()));
}
