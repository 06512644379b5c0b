//! Seeded input generator. Everything the program under test receives —
//! member decks, job decks, arrival times — is a pure function of `--seed`;
//! the program only ever sees the generated decks.

use std::time::Duration;
use xg_sim::deck::parse_deck;
use xg_sim::CgyroInput;

/// The committed deck texts. They are parsed with the product's own
/// `parse_deck`, never built as `CgyroInput { .. }` literals, so a change to
/// the deck format is felt here exactly as a user would feel it.
const COLL_DECK: &str = include_str!("../decks/coll.cgyro");
const STRNL_DECK: &str = include_str!("../decks/strnl.cgyro");
const JOB_DECK: &str = include_str!("../decks/job.cgyro");

/// Which committed deck a workload is built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deck {
    Coll,
    Strnl,
    Job,
}

impl Deck {
    pub fn load(self) -> CgyroInput {
        let text = match self {
            Deck::Coll => COLL_DECK,
            Deck::Strnl => STRNL_DECK,
            Deck::Job => JOB_DECK,
        };
        parse_deck(text).unwrap_or_else(|e| panic!("committed deck {self:?} does not parse: {e}"))
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One sweep variant of `base`: seeded gradient drives (three decimals, so
/// the deck text stays short) and an initial-condition seed that embeds
/// `index`, which makes every variant of one generator call a distinct deck.
fn variant(base: &CgyroInput, rng: &mut Rng, index: usize) -> CgyroInput {
    let rln = 0.5 + (rng.unit() * 2500.0).round() / 1000.0;
    let rlt = 1.0 + (rng.unit() * 3000.0).round() / 1000.0;
    let ic_seed = (rng.next_u64() % 1_000_000) * 1000 + index as u64;
    base.with_gradients(rln, rlt).with_seed(ic_seed)
}

/// `k` gradient-sweep members of `deck` (same cmat key, so they may share).
pub fn ensemble_members(deck: Deck, k: usize, seed: u64) -> Vec<CgyroInput> {
    let base = deck.load();
    let mut rng = Rng::new(seed);
    (0..k).map(|i| variant(&base, &mut rng, i)).collect()
}

/// `base` with its collisionality moved to cmat key number `key`.
fn with_key(base: &CgyroInput, key: usize) -> CgyroInput {
    let mut d = base.clone();
    d.nu_ee = 0.1 * (1 + key) as f64;
    d
}

/// The closed-loop campaign: `n` distinct job decks dealt round-robin over
/// `keys` cmat keys.
pub fn burst_jobs(n: usize, keys: usize, seed: u64) -> Vec<CgyroInput> {
    let base = Deck::Job.load();
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| variant(&with_key(&base, i % keys), &mut rng, i))
        .collect()
}

/// One arrival of the open-loop campaign: three same-key decks of one tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct Sweep {
    /// When the sweep is due, counted from the start of the schedule.
    pub due: Duration,
    pub tenant: &'static str,
    pub decks: Vec<CgyroInput>,
    /// `Some(s)` when this sweep re-submits the decks first sent by sweep
    /// `s` (so every one of its jobs must be a cache hit).
    pub repeat_of: Option<usize>,
}

pub const OPEN_TENANTS: [&str; 3] = ["alice", "bob", "carol"];
pub const OPEN_KEYS: usize = 2;
pub const SWEEP_JOBS: usize = 3;
/// Mean gap between sweeps: 3 jobs / 300 ms = 10 jobs/s, about half of what
/// the closed-loop campaign sustains, so the queue does not grow.
pub const SWEEP_GAP_MS: f64 = 300.0;

/// The open-loop schedule: `n` sweeps, each up to 10 % of the gap early or
/// late on a fixed grid (so gaps vary by ±20 % while the schedule's length
/// does not depend on the seed), tenants and cmat keys rotating per sweep.
/// From sweep 12 on, every 4th sweep re-submits a seeded earlier sweep (6 to
/// 10 sweeps back, about 2.4 s: long finished, so the repeat is a hit).
pub fn open_schedule(n: usize, seed: u64) -> Vec<Sweep> {
    let base = Deck::Job.load();
    let mut rng = Rng::new(seed);
    let mut sweeps: Vec<Sweep> = Vec::with_capacity(n);
    for s in 0..n {
        let due_ms = if s == 0 {
            0.0
        } else {
            SWEEP_GAP_MS * (s as f64 - 0.1 + 0.2 * rng.unit())
        };
        let repeat_of = (s >= 12 && s % 4 == 0).then(|| {
            let back = s - 6 - rng.below(5);
            // Follow a repeat to the sweep that first sent the decks.
            sweeps[back].repeat_of.unwrap_or(back)
        });
        let decks = match repeat_of {
            Some(orig) => sweeps[orig].decks.clone(),
            None => {
                let keyed = with_key(&base, s % OPEN_KEYS);
                (0..SWEEP_JOBS)
                    .map(|j| variant(&keyed, &mut rng, s * SWEEP_JOBS + j))
                    .collect()
            }
        };
        sweeps.push(Sweep {
            due: Duration::from_secs_f64(due_ms / 1000.0),
            tenant: OPEN_TENANTS[s % OPEN_TENANTS.len()],
            decks,
            repeat_of,
        });
    }
    sweeps
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_sim::deck::write_deck;

    #[test]
    fn committed_decks_have_the_documented_dims() {
        let dims = |d: Deck| {
            let s = d.load().dims();
            (s.nc, s.nv, s.nt)
        };
        assert_eq!(dims(Deck::Coll), (96, 144, 4));
        assert_eq!(dims(Deck::Strnl), (512, 8, 8));
        assert_eq!(dims(Deck::Job), (32, 48, 2));
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        let text = |v: &[CgyroInput]| v.iter().map(write_deck).collect::<Vec<_>>();
        assert_eq!(text(&burst_jobs(20, 3, 7)), text(&burst_jobs(20, 3, 7)));
        assert_ne!(text(&burst_jobs(20, 3, 7)), text(&burst_jobs(20, 3, 8)));
        assert_eq!(
            text(&ensemble_members(Deck::Coll, 4, 1)),
            text(&ensemble_members(Deck::Coll, 4, 1))
        );
        assert_ne!(
            text(&ensemble_members(Deck::Coll, 4, 1)),
            text(&ensemble_members(Deck::Coll, 4, 2))
        );
        assert_eq!(open_schedule(30, 3), open_schedule(30, 3));
        let (a, b) = (open_schedule(30, 3), open_schedule(30, 4));
        assert_ne!(
            a.iter().map(|s| s.due).collect::<Vec<_>>(),
            b.iter().map(|s| s.due).collect::<Vec<_>>()
        );
        assert_ne!(text(&a[0].decks), text(&b[0].decks));
    }

    #[test]
    fn generated_decks_are_distinct_and_share_keys_as_designed() {
        let jobs = burst_jobs(150, 3, 1);
        let mut texts: Vec<String> = jobs.iter().map(write_deck).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), 150, "every burst deck is distinct");
        let mut keys: Vec<u64> = jobs.iter().map(CgyroInput::cmat_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 3);
        let members = ensemble_members(Deck::Strnl, 2, 9);
        assert_eq!(members[0].cmat_key(), members[1].cmat_key());
        assert_ne!(write_deck(&members[0]), write_deck(&members[1]));
    }

    #[test]
    fn open_schedule_repeats_point_at_finished_first_sendings() {
        let sweeps = open_schedule(50, 5);
        let repeats: Vec<_> = sweeps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.repeat_of.is_some())
            .collect();
        assert_eq!(repeats.len(), 10);
        for (s, sweep) in repeats {
            let orig = sweep.repeat_of.unwrap();
            assert!(
                orig + 6 <= s,
                "sweep {s} repeats {orig}, too recent to be finished"
            );
            assert!(sweeps[orig].repeat_of.is_none());
            assert_eq!(sweep.decks, sweeps[orig].decks);
        }
        for w in sweeps.windows(2) {
            let gap = (w[1].due - w[0].due).as_secs_f64() * 1000.0;
            assert!(
                (0.8 * SWEEP_GAP_MS..=1.2 * SWEEP_GAP_MS).contains(&gap),
                "gap {gap} ms"
            );
        }
    }
}
