//! Driving the platform on a simulated-time schedule: a periodic telemetry
//! workload issued tick by tick, each tick advancing the platform clock to
//! its instant. `Platform::drain` is the one timing engine, so a plain loop
//! over the tick times is the whole schedule: the caller decides *when* a
//! request is issued, `drain` books it on the platform's queueing servers.

use coyote::kernel::Passthrough;
use coyote::{CThread, Oper, Platform, SgEntry, ShellConfig};
use coyote_sim::{SimDuration, SimTime};

#[test]
fn periodic_invocations_from_the_event_loop() {
    let mut platform = Platform::load(ShellConfig::host_only(1)).unwrap();
    platform
        .load_kernel(0, Box::new(Passthrough::default()))
        .unwrap();
    let thread = CThread::create(&mut platform, 0, 1).unwrap();
    let src = thread.get_mem(&mut platform, 64 * 1024).unwrap();
    let dst = thread.get_mem(&mut platform, 64 * 1024).unwrap();
    thread
        .write(&mut platform, src, &vec![7u8; 64 * 1024])
        .unwrap();
    let sg = SgEntry::local(src, dst, 64 * 1024);

    // A telemetry tick every 100 us: each tick advances the platform clock
    // to the tick time and queues one transfer.
    let mut submitted = 0;
    for i in 0..20u64 {
        platform.advance_to(SimTime::ZERO + SimDuration::from_us(100 * i));
        thread
            .invoke(&mut platform, Oper::LocalTransfer, &sg)
            .unwrap();
        submitted += 1;
    }
    assert_eq!(submitted, 20);

    // Execute the queued work; completions must respect the staggered
    // issue times (each tick's invocation was issued at its tick time).
    let completions = platform.drain().unwrap();
    assert_eq!(completions.len(), 20);
    for (i, c) in completions.iter().enumerate() {
        assert_eq!(
            c.issued_at.as_ps() / 1_000_000,
            (i as u64) * 100,
            "issue times follow the tick schedule"
        );
        assert!(c.completed_at > c.issued_at);
    }
}
