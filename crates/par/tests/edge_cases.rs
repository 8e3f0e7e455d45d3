//! Edge-case tests for the work-stealing runtime: empty and single-element
//! inputs, chunk sizes exceeding the data length, and deeply nested joins on
//! a single-thread pool. Every primitive must neither deadlock nor panic and
//! must match the serial result exactly, at every pool width.

use zkml_par::{
    for_each_chunk_exact, join, par_chunks_mut, par_for_each_mut, par_map, with_pool, Pool,
};

/// Runs `f` under pools of width 1, 2, and 4 so every code path (inline
/// fallback, scoped fan-out) is exercised.
fn at_all_widths(f: impl Fn() + Copy) {
    for threads in [1usize, 2, 4] {
        let pool = Pool::new(threads);
        with_pool(&pool, f);
    }
}

#[test]
fn empty_inputs_are_noops() {
    at_all_widths(|| {
        let mut empty: Vec<u64> = Vec::new();
        par_for_each_mut(&mut empty, |_, _| unreachable!("no elements"));
        assert!(empty.is_empty());

        assert_eq!(par_map(0, |i| i * 2), Vec::<usize>::new());

        // Chunked traversals over empty data must not visit any element.
        for_each_chunk_exact(&mut empty, 8, |_, _, chunk| assert!(chunk.is_empty()));
        par_chunks_mut(&mut empty, 8, |_, _, chunk| assert!(chunk.is_empty()));
        assert!(empty.is_empty());
    });
}

#[test]
fn single_element_inputs() {
    at_all_widths(|| {
        let mut one = vec![41u64];
        par_for_each_mut(&mut one, |i, x| {
            assert_eq!(i, 0);
            *x += 1;
        });
        assert_eq!(one, vec![42]);

        assert_eq!(par_map(1, |i| i + 10), vec![10]);

        for_each_chunk_exact(&mut one, 16, |c, start, chunk| {
            assert_eq!((c, start, chunk.len()), (0, 0, 1));
        });
        par_chunks_mut(&mut one, 16, |c, start, chunk| {
            assert_eq!((c, start, chunk.len()), (0, 0, 1));
        });
    });
}

#[test]
fn chunk_size_exceeding_len_degenerates_to_one_chunk() {
    at_all_widths(|| {
        let mut data: Vec<u64> = (0..7).collect();
        // min_chunk / chunk_size far beyond the slice length: exactly one
        // chunk covering everything, indices still correct.
        for_each_chunk_exact(&mut data, 1000, |c, start, chunk| {
            assert_eq!((c, start), (0, 0));
            for x in chunk.iter_mut() {
                *x *= 3;
            }
        });
        assert_eq!(data, (0..7).map(|x| x * 3).collect::<Vec<u64>>());

        par_chunks_mut(&mut data, 1000, |c, start, chunk| {
            assert_eq!((c, start), (0, 0));
            for x in chunk.iter_mut() {
                *x += 1;
            }
        });
        assert_eq!(data, (0..7).map(|x| x * 3 + 1).collect::<Vec<u64>>());
    });
}

#[test]
fn chunk_boundaries_are_exact_regardless_of_width() {
    // for_each_chunk_exact promises caller-fixed boundaries; verify that the
    // (chunk index, start) pairs are identical at every pool width.
    let expected: Vec<(usize, usize, usize)> = vec![(0, 0, 4), (1, 4, 4), (2, 8, 4), (3, 12, 1)];
    at_all_widths(|| {
        let mut data = vec![0u8; 13];
        let seen = std::sync::Mutex::new(Vec::new());
        for_each_chunk_exact(&mut data, 4, |c, start, chunk| {
            seen.lock().unwrap().push((c, start, chunk.len()));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, expected);
    });
}

#[test]
fn nested_join_on_single_thread_pool_does_not_deadlock() {
    // A single-thread pool must run everything inline; recursive joins that
    // would need a second worker to make progress must not deadlock.
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    let pool = Pool::new(1);
    let result = with_pool(&pool, || fib(16));
    assert_eq!(result, 987);

    // Deep nesting of heterogeneous primitives under one thread.
    let nested = with_pool(&pool, || {
        let (sums, product) = join(
            || par_map(8, |i| par_map(i, |_| 1usize).into_iter().sum::<usize>()),
            || {
                let mut v: Vec<u64> = (1..=6).collect();
                par_chunks_mut(&mut v, 2, |_, _, chunk| {
                    for x in chunk.iter_mut() {
                        *x += 1;
                    }
                });
                v.iter().product::<u64>()
            },
        );
        (sums, product)
    });
    assert_eq!(nested.0, (0..8usize).collect::<Vec<_>>());
    assert_eq!(nested.1, (2u64..=7).product::<u64>());
}

#[test]
fn nested_join_matches_across_widths() {
    fn work() -> (Vec<u64>, u64) {
        let (doubles, total) = join(
            || par_map(100, |i| (i as u64) * 2),
            || par_map(100, |i| i as u64).into_iter().sum::<u64>(),
        );
        (doubles, total)
    }
    let serial = {
        let pool = Pool::new(1);
        with_pool(&pool, work)
    };
    for threads in [2usize, 4, 8] {
        let pool = Pool::new(threads);
        let parallel = with_pool(&pool, work);
        assert_eq!(serial, parallel, "threads={threads}");
    }
    assert_eq!(serial.0[99], 198);
    assert_eq!(serial.1, (0..100u64).sum());
}

#[test]
fn zkml_threads_env_is_respected_for_default_width() {
    // `default_threads` honors ZKML_THREADS; run the parse in a subprocess
    // so we do not mutate this process's environment for other tests.
    // (The in-process equivalent is covered by the Pool::new(1) tests.)
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args(["--exact", "helper_report_default_threads", "--nocapture"])
        .env("ZKML_THREADS", "1")
        .output()
        .expect("re-exec test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("default_threads=1"),
        "expected default_threads=1 under ZKML_THREADS=1, got:\n{stdout}"
    );
}

#[test]
fn helper_report_default_threads() {
    // Helper for `zkml_threads_env_is_respected_for_default_width`; prints
    // the resolved width so the parent can assert on it. Harmless when run
    // as part of the normal suite.
    println!("default_threads={}", zkml_par::default_threads());
}
