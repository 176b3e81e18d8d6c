//! Randomized property tests for the DES engine invariants the FluidiCL
//! co-execution protocol relies on. Cases are drawn from the in-tree
//! deterministic generator so failures replay bit-for-bit.

use fluidicl_des::{SimDuration, SimTime, Simulation, SplitMix64};

const CASES: u64 = 64;

fn arb_times(rng: &mut SplitMix64, max_len: usize, max_t: u64) -> Vec<u64> {
    let len = rng.range_usize(1, max_len);
    (0..len).map(|_| rng.range_u64(0, max_t)).collect()
}

/// Events are always delivered in nondecreasing time order regardless of
/// scheduling order.
#[test]
fn delivery_is_time_ordered() {
    let mut rng = SplitMix64::new(0xDE51);
    for _ in 0..CASES {
        let times = arb_times(&mut rng, 200, 1_000_000);
        let mut sim = Simulation::new();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = sim.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(sim.delivered(), times.len() as u64);
    }
}

/// Same-timestamp events preserve scheduling order (FIFO tie-break).
#[test]
fn ties_are_fifo() {
    let mut rng = SplitMix64::new(0xDE52);
    for _ in 0..CASES {
        let n = rng.range_usize(1, 100);
        let t = rng.range_u64(0, 1000);
        let mut sim = Simulation::new();
        for i in 0..n {
            sim.schedule_at(SimTime::from_nanos(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| sim.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    }
}

/// Two identical schedules produce identical delivery sequences
/// (determinism).
#[test]
fn runs_are_deterministic() {
    let mut rng = SplitMix64::new(0xDE53);
    for _ in 0..CASES {
        let times = arb_times(&mut rng, 100, 10_000);
        let run = |times: &[u64]| {
            let mut sim = Simulation::new();
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(t), i);
            }
            std::iter::from_fn(move || sim.pop()).collect::<Vec<_>>()
        };
        assert_eq!(run(&times), run(&times));
    }
}

/// Cancelling an arbitrary subset removes exactly that subset.
#[test]
fn cancellation_is_exact() {
    let mut rng = SplitMix64::new(0xDE54);
    for _ in 0..CASES {
        let times = arb_times(&mut rng, 100, 10_000);
        let cancel_mask: Vec<bool> = times.iter().map(|_| rng.next_bool()).collect();
        let mut sim = Simulation::new();
        let tokens: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, sim.schedule_at(SimTime::from_nanos(t), i)))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, tok) in &tokens {
            if cancel_mask[*i] {
                assert!(sim.cancel(*tok));
            } else {
                expect.push(*i);
            }
        }
        let mut got: Vec<usize> = std::iter::from_fn(|| sim.pop()).map(|(_, e)| e).collect();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}

/// The clock equals the timestamp of the last delivered event.
#[test]
fn clock_tracks_last_event() {
    let mut rng = SplitMix64::new(0xDE55);
    for _ in 0..CASES {
        let times: Vec<u64> = arb_times(&mut rng, 50, 1_000_000)
            .into_iter()
            .map(|t| t + 1)
            .collect();
        let mut sim = Simulation::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_nanos(t), ());
        }
        let mut max = 0;
        while let Some((t, ())) = sim.pop() {
            max = max.max(t.as_nanos());
            assert_eq!(sim.now(), t);
        }
        assert_eq!(sim.now().as_nanos(), max);
    }
}

/// Relative scheduling composes: a chain of events each scheduled a delay
/// after the one before lands at the prefix sums of the delays.
#[test]
fn relative_chains_accumulate() {
    let mut rng = SplitMix64::new(0xDE56);
    for _ in 0..CASES {
        let delays = arb_times(&mut rng, 50, 1000);
        let mut sim = Simulation::new();
        sim.schedule_at(sim.now() + SimDuration::from_nanos(delays[0]), 0usize);
        let mut stamps = Vec::new();
        while let Some((t, i)) = sim.pop() {
            stamps.push(t.as_nanos());
            let next = i + 1;
            if next < delays.len() {
                sim.schedule_at(t + SimDuration::from_nanos(delays[next]), next);
            }
        }
        let mut acc = 0u64;
        let expect: Vec<u64> = delays
            .iter()
            .map(|&d| {
                acc += d;
                acc
            })
            .collect();
        assert_eq!(stamps, expect);
    }
}
