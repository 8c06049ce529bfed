//! Property tests of the flight recorder's accounting contract under
//! random interleavings of `record` and `dump_json` (the two operations the
//! daemon performs on a ring), plus the ring's capacity invariants:
//!
//! * the ring never retains more than `capacity` events;
//! * retained events are strictly increasing in `seq` and monotone in
//!   `ts_ns`;
//! * `recorded_total == len + dropped_total` at every step — every event
//!   ever recorded is either retained or accounted as dropped by capacity
//!   eviction, exactly once.

use mpss::model::json::arr;
use mpss::numeric::rng::{check, Rng};
use mpss::obs::json::Json;
use mpss::obs::{Failure, FlightEventKind, FlightRecorder};

/// One step of the daemon's usage pattern, generated randomly.
#[derive(Clone, Debug)]
enum Op {
    Record(u8),
    Dump,
}

/// Records outweigh dumps 5:1, mirroring the daemon (every request
/// records; bundles are rare).
fn op(rng: &mut Rng) -> Op {
    let payload = rng.gen_range(0u8..=255);
    match rng.gen_range(0..6) {
        0..=4 => Op::Record(payload),
        _ => Op::Dump,
    }
}

fn event(variant: u8) -> FlightEventKind {
    match variant % 3 {
        0 => FlightEventKind::request(
            "arrive",
            variant
                .is_multiple_of(5)
                .then(|| Failure::new("bad-job", "injected")),
        ),
        // The +0.125 keeps the latency non-integral, so the JSON dump
        // round-trips as a float rather than collapsing to an integer.
        1 => FlightEventKind::replan(
            f64::from(variant) * 0.25 + 0.125,
            u64::from(variant),
            7,
            "dinic",
        ),
        _ => FlightEventKind::bundle("slow-replan", Ok(format!("pm/t-{variant:04}"))),
    }
}

/// The invariants every interleaving must preserve, checked after each op.
fn check_invariants(flight: &FlightRecorder) {
    assert!(
        flight.len() <= flight.capacity(),
        "ring holds {} events over capacity {}",
        flight.len(),
        flight.capacity()
    );
    assert_eq!(
        flight.recorded_total(),
        flight.len() as u64 + flight.dropped_total(),
        "recorded_total must equal len + dropped_total"
    );
    let events: Vec<_> = flight.events().collect();
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seq must strictly increase");
        assert!(pair[0].ts_ns <= pair[1].ts_ns, "ts_ns must be monotone");
    }
}

#[test]
fn random_interleavings_preserve_the_accounting() {
    check(256, |rng| {
        let capacity = rng.gen_range(1usize..40);
        let ops = (0..rng.gen_range(1..200))
            .map(|_| op(rng))
            .collect::<Vec<_>>();
        let mut flight = FlightRecorder::new(capacity);
        let mut recorded = 0u64;
        for step in &ops {
            match step {
                Op::Record(variant) => {
                    let seq = flight.record(event(*variant));
                    assert_eq!(seq, recorded, "seqs are dense and never reused");
                    recorded += 1;
                }
                Op::Dump => {
                    let dump = flight.dump_json();
                    assert_eq!(arr(&dump, "events").unwrap().len(), flight.len());
                    assert_eq!(dump.get("recorded_total"), Some(&Json::UInt(recorded)));
                    // The dump round-trips through the JSON parser.
                    assert_eq!(&Json::parse(&dump.render()).unwrap(), &dump);
                }
            }
            check_invariants(&flight);
            assert_eq!(flight.recorded_total(), recorded);
        }
    });
}

/// Exactness of `dropped_total`: with only records, drops are exactly
/// the overflow past capacity — no event is ever double-counted.
#[test]
fn dropped_total_is_exact_under_pure_recording() {
    check(256, |rng| {
        let (capacity, n) = (rng.gen_range(1..20), rng.gen_range(0..100));
        let mut flight = FlightRecorder::new(capacity);
        for i in 0..n {
            flight.record(event(i as u8));
        }
        assert_eq!(flight.len(), n.min(capacity));
        assert_eq!(flight.dropped_total(), n.saturating_sub(capacity) as u64);
        assert_eq!(flight.recorded_total(), n as u64);
    });
}
