//! The vendored rayon pool's contract: results are input-ordered whatever
//! the item costs, `sum`/`reduce` fold in input order, nested calls run
//! inline, concurrent callers each get the serial result, and an item's
//! panic reaches the caller with its payload while the pool stays usable.
//!
//! Unless `RAYON_NUM_THREADS` is already set, the pool is four threads
//! wide here, so the pooled path runs even on a one-CPU machine. The tests
//! take turns on the pool (see [`pool`]); only the concurrent-callers test
//! contends for it on purpose.

use rayon::prelude::*;
use std::panic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// Latches the pool width before any test uses it, then hands out the pool
/// one test at a time, so a test's calls are not turned inline by another
/// test's job in flight.
fn pool() -> MutexGuard<'static, ()> {
    static WIDTH: Once = Once::new();
    static TURN: Mutex<()> = Mutex::new(());
    WIDTH.call_once(|| {
        if std::env::var_os("RAYON_NUM_THREADS").is_none() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
        rayon::current_num_threads();
    });
    TURN.lock().unwrap_or_else(|p| p.into_inner())
}

/// Burns roughly `units` × 50 µs, so item costs differ.
fn spin(units: u64) {
    let until = Instant::now() + Duration::from_micros(50 * units);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

#[test]
fn map_collect_preserves_order() {
    let _turn = pool();
    let v: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x * x).collect();
    let expect: Vec<u64> = (0u64..1000).map(|x| x * x).collect();
    assert_eq!(v, expect);
}

#[test]
fn par_iter_over_slice() {
    let _turn = pool();
    let data = vec![(1u32, 2.0f64), (3, 4.0)];
    let v: Vec<f64> = data.par_iter().map(|&(a, b)| a as f64 + b).collect();
    assert_eq!(v, vec![3.0, 7.0]);
}

#[test]
fn sum_matches_serial() {
    let _turn = pool();
    let s: u64 = (0u64..10_000).into_par_iter().map(|x| x % 7).sum();
    let e: u64 = (0u64..10_000).map(|x| x % 7).sum();
    assert_eq!(s, e);
}

#[test]
fn uneven_item_costs_keep_input_order() {
    let _turn = pool();
    let v: Vec<u64> = (0u64..96)
        .into_par_iter()
        .map(|i| {
            spin(i % 7);
            i * 3 + 1
        })
        .collect();
    let expect: Vec<u64> = (0u64..96).map(|i| i * 3 + 1).collect();
    assert_eq!(v, expect);
}

#[test]
fn the_caller_and_the_workers_share_a_job() {
    let _turn = pool();
    if rayon::current_num_threads() < 2 {
        return;
    }
    // item 0 holds the caller (or whichever thread claims it) until an
    // item has run on another thread; the bound only turns a hang into
    // a failure
    let caller = thread::current().id();
    let elsewhere = AtomicBool::new(false);
    let ids: Vec<ThreadId> = (0u32..8)
        .into_par_iter()
        .map(|i| {
            let me = thread::current().id();
            if me != caller {
                elsewhere.store(true, Ordering::SeqCst);
            }
            let until = Instant::now() + Duration::from_secs(10);
            while i == 0 && !elsewhere.load(Ordering::SeqCst) && Instant::now() < until {
                thread::sleep(Duration::from_millis(1));
            }
            me
        })
        .collect();
    assert!(
        ids.iter().any(|&id| id != caller),
        "no item left the caller"
    );
}

#[test]
fn sum_and_reduce_fold_in_input_order() {
    /// String concatenation: a `Sum` whose result depends on the order.
    struct Concat(String);
    impl std::iter::Sum<String> for Concat {
        fn sum<I: Iterator<Item = String>>(iter: I) -> Self {
            Concat(iter.collect())
        }
    }
    let _turn = pool();
    let word = |i: u32| {
        spin(u64::from(i % 5));
        format!("{i},")
    };
    let serial: String = (0u32..40).map(word).collect();
    let summed: Concat = (0u32..40).into_par_iter().map(word).sum();
    assert_eq!(summed.0, serial);
    let reduced = (0u32..40)
        .into_par_iter()
        .map(word)
        .reduce(String::new, |a, b| a + &b);
    assert_eq!(reduced, serial);
    // f64 addition is not associative: the bits pin the fold order too
    let xs: Vec<f64> = (0..200)
        .map(|i| 1.0 / (1.0 + f64::from(i)) * 1e15f64.powi(i % 3))
        .collect();
    let pooled: f64 = xs.par_iter().map(|&x| x).sum();
    let serial: f64 = xs.iter().sum();
    assert_eq!(pooled.to_bits(), serial.to_bits());
}

#[test]
fn nested_calls_run_inline_and_equal_the_serial_nest() {
    let _turn = pool();
    let outer: Vec<u64> = (1..=12).collect();
    let pooled: Vec<(Vec<u64>, bool)> = outer
        .par_iter()
        .map(|&k| {
            let me = thread::current().id();
            let inner: Vec<(u64, ThreadId)> = (0..k)
                .into_par_iter()
                .map(|j| {
                    spin(j % 3);
                    (k * 100 + j, thread::current().id())
                })
                .collect();
            let inline = inner.iter().all(|&(_, id)| id == me);
            (inner.into_iter().map(|(x, _)| x).collect(), inline)
        })
        .collect();
    let serial: Vec<Vec<u64>> = outer
        .iter()
        .map(|&k| (0..k).map(|j| k * 100 + j).collect())
        .collect();
    let (values, inline): (Vec<Vec<u64>>, Vec<bool>) = pooled.into_iter().unzip();
    assert_eq!(values, serial);
    assert!(inline.iter().all(|&b| b), "a nested call left its thread");
}

#[test]
fn concurrent_callers_each_get_the_serial_result() {
    let _turn = pool();
    let expect = |t: u64| -> Vec<u64> { (0..200).map(|i| i * i + t).collect() };
    let handles: Vec<_> = (0u64..4)
        .map(|t| {
            thread::spawn(move || -> Vec<Vec<u64>> {
                (0..10)
                    .map(|_| {
                        (0u64..200)
                            .into_par_iter()
                            .map(|i| {
                                spin(i % 2);
                                i * i + t
                            })
                            .collect()
                    })
                    .collect()
            })
        })
        .collect();
    for (t, h) in (0u64..).zip(handles) {
        for got in h.join().expect("caller thread") {
            assert_eq!(got, expect(t));
        }
    }
}

#[test]
fn an_item_panic_reaches_the_caller_with_its_payload() {
    let _turn = pool();
    let caught = panic::catch_unwind(|| {
        (0u32..64)
            .into_par_iter()
            .map(|i| {
                spin(u64::from(i % 3));
                if i == 37 {
                    panic!("item {i} failed");
                }
                i
            })
            .collect::<Vec<u32>>()
    })
    .expect_err("the item panic must propagate");
    let msg = caught
        .downcast_ref::<String>()
        .expect("the panic payload is the item's formatted message");
    assert_eq!(msg, "item 37 failed");

    // the pool survives: the next call runs every item
    let v: Vec<u32> = (0u32..64).into_par_iter().map(|i| i + 1).collect();
    assert_eq!(v, (1u32..=64).collect::<Vec<u32>>());
}
