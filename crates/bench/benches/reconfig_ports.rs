//! Table 2: wall-clock cost of simulating each configuration port
//! programming a ~40 MB partial bitstream (the simulated times themselves
//! are checked by the harness; this measures the model's engine cost).

use coyote_fabric::config::{ConfigPort, ConfigPortKind, ConfigState};
use coyote_fabric::{Bitstream, BitstreamHeader, BitstreamKind, DeviceKind};
use coyote_sim::SimTime;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let bs = Bitstream::assemble(DeviceKind::U55C, BitstreamKind::Shell, 106_000, 1);
    let mut group = c.benchmark_group("table2_reconfig_ports");
    group.sample_size(20);
    for kind in [
        ConfigPortKind::AxiHwicap,
        ConfigPortKind::Pcap,
        ConfigPortKind::Mcap,
        ConfigPortKind::CoyoteIcap,
    ] {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut port = ConfigPort::new(kind);
                let mut state = ConfigState::new(DeviceKind::U55C);
                black_box(
                    port.program(SimTime::ZERO, black_box(bs.header()), &mut state)
                        .unwrap(),
                )
            })
        });
    }
    // Bitstream validation (parse + CRC over 40 MB) is the dominant real
    // cost of a reconfiguration request in the driver.
    group.bench_function("bitstream_parse_validate", |b| {
        b.iter(|| black_box(BitstreamHeader::validate(black_box(bs.bytes())).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
