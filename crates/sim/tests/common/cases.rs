//! The seeded case loop every randomized test runs on, here and in the
//! facade's suites (which include this file by path).
//!
//! Case `i` of a test with seed `s` draws its input from
//! `StdRng::seed_from_u64(s + i)`, so a failing case replays from the one
//! seed it prints: call the test's sampler on that generator in a
//! directed test. To soak a property, raise its case count in a scratch
//! copy.
#![allow(dead_code)] // each suite uses a subset

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run `check` on `count` inputs drawn by `sample`, case `i` from the
/// seed `seed + i`. A failing case prints the test, its index, its seed
/// and its input before the panic carries on.
pub fn cases<T: Debug>(
    seed: u64,
    count: u64,
    mut sample: impl FnMut(&mut StdRng) -> T,
    mut check: impl FnMut(&T),
) {
    for case in 0..count {
        let case_seed = seed + case;
        let input = sample(&mut StdRng::seed_from_u64(case_seed));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&input))) {
            let test = std::thread::current().name().unwrap_or("?").to_string();
            eprintln!("{test} failed at case {case} (seed {case_seed}): input = {input:#?}");
            resume_unwind(panic);
        }
    }
}

/// A vector whose length is drawn from `len`, then each element by `elem`.
pub fn vec_of<T>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut elem: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| elem(rng)).collect()
}
