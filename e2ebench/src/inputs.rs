//! Seeded workload inputs and their reference scores.
//!
//! Every input is a DNA family triple at the canonical
//! [`tsa_bench::workload`] rates (15% substitutions, 5% indels). The job
//! list is a pure function of the workload, the seed and the job count;
//! the program under test only ever sees the generated sequences.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsa_bench::workload::{CANONICAL_INDEL, CANONICAL_SUB};
use tsa_core::kernel::SimdKernel;
use tsa_core::score_only;
use tsa_scoring::Scoring;
use tsa_seq::family::FamilyConfig;
use tsa_seq::Seq;

use crate::Workload;

/// Ancestor length of every `solo-align` triple.
pub const SOLO_LEN: usize = 192;
/// Ancestor lengths `batch-mixed` draws from.
pub const BATCH_LENS: [usize; 3] = [96, 128, 160];
/// Ancestor length of every `cluster-small-repeat` triple.
pub const CLUSTER_LEN: usize = 48;
/// Share of `cluster-small-repeat` submissions that repeat an earlier
/// triple.
pub const CLUSTER_REPEAT: f64 = 0.75;

/// One job: a triple, whether only the score is asked for, and the
/// reference score it must come back with.
#[derive(Debug, Clone)]
pub struct Job {
    pub a: Seq,
    pub b: Seq,
    pub c: Seq,
    pub score_only: bool,
    /// Whether an earlier job of the list carries the same triple.
    pub repeat: bool,
    /// `score_only::score_slabs_with(.., SimdKernel::Scalar)` of the
    /// triple.
    pub reference: i32,
}

/// What a job is before its sequences exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub len: usize,
    pub score_only: bool,
    pub family: u64,
    pub repeat: bool,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The first `count` job specs of `workload` under `seed`.
pub fn specs(workload: Workload, seed: u64, count: usize) -> Vec<Spec> {
    let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(workload.name().as_bytes()));
    let mut pool: Vec<u64> = Vec::new();
    let mut block: Vec<(usize, bool)> = Vec::new();
    (0..count)
        .map(|_| match workload {
            Workload::SoloAlign => Spec {
                len: SOLO_LEN,
                score_only: false,
                family: rng.gen(),
                repeat: false,
            },
            Workload::BatchMixed => {
                // Every (length, kind) pair once per block of six, in a
                // seeded order: any prefix of the list carries the same
                // mix, so the seed changes the triples, not the workload.
                if block.is_empty() {
                    block = BATCH_LENS
                        .iter()
                        .flat_map(|&len| [(len, false), (len, true)])
                        .collect();
                    for i in (1..block.len()).rev() {
                        block.swap(i, rng.gen_range(0..=i));
                    }
                }
                let (len, score_only) = block.pop().expect("refilled above");
                Spec {
                    len,
                    score_only,
                    family: rng.gen(),
                    repeat: false,
                }
            }
            Workload::ClusterSmallRepeat => {
                let repeat = !pool.is_empty() && rng.gen_bool(CLUSTER_REPEAT);
                let family = if repeat {
                    pool[rng.gen_range(0..pool.len())]
                } else {
                    let f = rng.gen();
                    pool.push(f);
                    f
                };
                Spec {
                    len: CLUSTER_LEN,
                    score_only: false,
                    family,
                    repeat,
                }
            }
        })
        .collect()
}

/// The canonical triple of ancestor length `len` drawn with `family`.
pub fn triple(len: usize, family: u64) -> [Seq; 3] {
    FamilyConfig::new(len, CANONICAL_SUB, CANONICAL_INDEL)
        .generate(family)
        .members
}

/// The reference score: the sequential slab sweep on the scalar kernel.
pub fn reference(a: &Seq, b: &Seq, c: &Seq) -> i32 {
    score_only::score_slabs_with(a, b, c, &Scoring::dna_default(), SimdKernel::Scalar)
}

/// Materialize `specs` and score every distinct triple, spread over
/// `threads` threads. Nothing here is timed by the benchmark.
pub fn jobs(specs: &[Spec], threads: usize) -> Vec<Job> {
    let mut distinct: Vec<(usize, u64)> = specs.iter().map(|s| (s.len, s.family)).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut scored: Vec<((usize, u64), [Seq; 3], i32)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(len, family)) = distinct.get(i) else {
                            break out;
                        };
                        let t = triple(len, family);
                        let r = reference(&t[0], &t[1], &t[2]);
                        out.push(((len, family), t, r));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference scoring thread panicked"))
            .collect()
    });
    scored.sort_unstable_by_key(|(key, ..)| *key);
    specs
        .iter()
        .map(|s| {
            let i = scored
                .binary_search_by_key(&(s.len, s.family), |(key, ..)| *key)
                .expect("every spec was scored");
            let (_, [a, b, c], reference) = &scored[i];
            Job {
                a: a.clone(),
                b: b.clone(),
                c: c.clone(),
                score_only: s.score_only,
                repeat: s.repeat,
                reference: *reference,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            assert_eq!(specs(w, 7, 200), specs(w, 7, 200), "{}", w.name());
        }
        let [a1, b1, c1] = triple(64, 99);
        let [a2, b2, c2] = triple(64, 99);
        assert_eq!(
            (a1.residues(), b1.residues(), c1.residues()),
            (a2.residues(), b2.residues(), c2.residues())
        );
    }

    #[test]
    fn different_seed_different_inputs() {
        for w in Workload::ALL {
            assert_ne!(specs(w, 7, 50), specs(w, 8, 50), "{}", w.name());
        }
        let [a1, ..] = triple(64, 1);
        let [a2, ..] = triple(64, 2);
        assert_ne!(a1.residues(), a2.residues());
    }

    #[test]
    fn a_longer_list_extends_a_shorter_one() {
        for w in Workload::ALL {
            assert_eq!(specs(w, 3, 40)[..], specs(w, 3, 80)[..40]);
        }
    }

    #[test]
    fn workload_shapes() {
        let solo = specs(Workload::SoloAlign, 1, 100);
        assert!(solo.iter().all(|s| s.len == SOLO_LEN && !s.score_only));
        let batch = specs(Workload::BatchMixed, 1, 1002);
        for block in batch.chunks(6) {
            for len in BATCH_LENS {
                for kind in [false, true] {
                    let n = block
                        .iter()
                        .filter(|s| (s.len, s.score_only) == (len, kind))
                        .count();
                    assert_eq!(n, 1, "each (length, kind) once per block of six");
                }
            }
        }
        let mut fams: Vec<u64> = batch.iter().map(|s| s.family).collect();
        fams.sort_unstable();
        fams.dedup();
        assert_eq!(fams.len(), batch.len(), "batch inputs must be distinct");
        let cluster = specs(Workload::ClusterSmallRepeat, 1, 4000);
        let repeats = cluster.iter().filter(|s| s.repeat).count() as f64 / 4000.0;
        assert!((repeats - CLUSTER_REPEAT).abs() < 0.03, "{repeats}");
    }

    #[test]
    fn jobs_carry_reference_scores() {
        let specs = specs(Workload::ClusterSmallRepeat, 5, 12);
        let jobs = jobs(&specs, 2);
        for (s, j) in specs.iter().zip(&jobs) {
            let [a, b, c] = triple(s.len, s.family);
            assert_eq!(j.a.residues(), a.residues());
            assert_eq!(j.reference, reference(&a, &b, &c));
            let full = tsa_core::full::align_score(&a, &b, &c, &Scoring::dna_default());
            assert_eq!(j.reference, full);
        }
    }
}
