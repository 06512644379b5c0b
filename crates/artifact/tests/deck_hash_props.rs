//! Property tests pinning the deck-hash contract.
//!
//! Three claims the cache depends on, checked across the input space:
//!
//! 1. **Formatting invariance** — hashing goes through `parse_deck`, so key
//!    order, case, whitespace and comments can never split the cache.
//! 2. **Semantic sensitivity** — every field the result depends on moves
//!    the hash: the full `cmat_divergence` field list *plus* the
//!    result-bearing fields `cmat_key` excludes (gradients, seed, cadence,
//!    dissipation, coupling, beta_e) *plus* the step count.
//! 3. **Snapshot stability** — golden hashes for the stock test decks, so
//!    the encoding cannot drift without a deliberate `xgd` version bump
//!    (a silent drift would orphan every existing store).

use proptest::prelude::*;
use xg_artifact::deck_hash;
use xg_sim::{parse_deck, write_deck, CgyroInput, Species};

/// A modest but multi-dimensional slice of valid inputs.
fn inputs() -> impl Strategy<Value = CgyroInput> {
    (
        1usize..6,   // n_radial
        4usize..10,  // n_theta (stencil needs >= 4)
        2usize..6,   // n_xi
        2usize..5,   // n_energy
        1usize..4,   // n_toroidal
        1usize..4,   // n_species
        0u64..1_000, // seed
        1usize..40,  // steps_per_report
        0u64..1_000, // nu_ee scale (milli)
    )
        .prop_map(|(nr, nt, nxi, ne, ntor, nsp, seed, spr, nu)| {
            let mut input = CgyroInput::test_small();
            input.n_radial = nr;
            input.n_theta = nt;
            input.n_xi = nxi;
            input.n_energy = ne;
            input.n_toroidal = ntor;
            input.species.truncate(1);
            for i in 1..nsp {
                let mut s = Species::electron();
                s.name = format!("s{i}");
                s.dens = 0.5 + 0.25 * i as f64;
                input.species.push(s);
            }
            input.seed = seed;
            input.steps_per_report = spr;
            input.nu_ee = nu as f64 / 1000.0;
            input.validate().expect("strategy generates valid inputs");
            input
        })
}

/// Reformat a deck without changing its meaning: rotate line order,
/// lowercase keys, pad around `=`, and sprinkle comments and blank lines.
fn mangle(text: &str, rot: usize, pad: bool, comments: bool) -> String {
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (k, v) = l.split_once('=').expect("deck lines are KEY=VALUE");
            let key = k.to_ascii_lowercase();
            let mut out = if pad {
                format!("  {key}   =  {v} ")
            } else {
                format!("{key}={v}")
            };
            if comments {
                out.push_str("  # same physics");
            }
            out
        })
        .collect();
    let n = lines.len().max(1);
    lines.rotate_left(rot % n);
    let mut out = String::from("# mangled restatement of the same deck\n");
    for (i, l) in lines.iter().enumerate() {
        if comments && i % 3 == 0 {
            out.push('\n');
        }
        out.push_str(l);
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hash_is_invariant_under_formatting(
        input in inputs(),
        steps in 1usize..200,
        rot in 0usize..64,
        style in 0u64..4,
    ) {
        let (pad, comments) = (style & 1 != 0, style & 2 != 0);
        let text = write_deck(&input);
        let canonical = deck_hash(&parse_deck(&text).unwrap(), steps);
        let mangled = mangle(&text, rot, pad, comments);
        let reparsed = parse_deck(&mangled).unwrap();
        prop_assert_eq!(deck_hash(&reparsed, steps), canonical,
            "reformatting split the cache:\n{}", mangled);
    }

    #[test]
    fn hash_agrees_with_cmat_divergence(
        a in inputs(),
        b in inputs(),
        steps in 1usize..200,
    ) {
        // Equal hashes for decks cmat_divergence can tell apart would mean
        // the deck hash is *coarser* than the cmat key — never allowed.
        if !a.cmat_divergence(&b).is_empty() {
            prop_assert_ne!(deck_hash(&a, steps), deck_hash(&b, steps));
        }
    }
}

/// Every semantic field moves the hash. The closure list reuses the
/// `cmat_divergence` vocabulary for the cmat-relevant fields and extends it
/// with the result-bearing fields `cmat_key` deliberately excludes.
#[test]
fn every_semantic_field_moves_the_hash() {
    type Mutation = (&'static str, bool, fn(&mut CgyroInput));
    // (name, is_cmat_field, mutation)
    let mutations: [Mutation; 24] = [
        ("n_radial", true, |i| i.n_radial += 1),
        ("n_theta", true, |i| i.n_theta += 1),
        ("n_xi", true, |i| i.n_xi += 1),
        ("n_energy", true, |i| i.n_energy += 1),
        ("n_toroidal", true, |i| i.n_toroidal += 1),
        ("n_species", true, |i| i.species.push(Species::carbon())),
        ("species[0].mass", true, |i| i.species[0].mass *= 2.0),
        ("species[0].z", true, |i| i.species[0].z += 1.0),
        ("species[0].temp", true, |i| i.species[0].temp *= 1.5),
        ("species[0].dens", true, |i| i.species[0].dens *= 0.5),
        ("nu_ee", true, |i| i.nu_ee *= 2.0),
        ("q", true, |i| i.q += 0.1),
        ("shear", true, |i| i.shear += 0.1),
        ("kappa", true, |i| i.kappa += 0.1),
        ("delta", true, |i| i.delta += 0.1),
        ("ky_min", true, |i| i.ky_min *= 2.0),
        ("kx_min", true, |i| i.kx_min *= 2.0),
        ("delta_t", true, |i| i.delta_t *= 0.5),
        // Result-bearing fields outside the cmat key.
        ("species[0].rln", false, |i| i.species[0].rln += 1.0),
        ("species[0].rlt", false, |i| i.species[0].rlt += 1.0),
        ("nonlinear_coupling", false, |i| i.nonlinear_coupling += 0.01),
        ("beta_e", false, |i| i.beta_e += 0.01),
        ("upwind_diss", false, |i| i.upwind_diss += 0.05),
        ("seed", false, |i| i.seed += 1),
    ];
    let base = CgyroInput::test_small();
    let h = deck_hash(&base, 20);
    for (name, is_cmat, mutate) in mutations {
        let mut alt = base.clone();
        mutate(&mut alt);
        alt.validate().unwrap_or_else(|e| panic!("mutation {name} invalid: {e}"));
        assert_ne!(deck_hash(&alt, 20), h, "hash is blind to {name}");
        // Tie the cmat half of the list to cmat_divergence itself, so a
        // future cmat field can't be forgotten here silently.
        assert_eq!(
            !base.cmat_divergence(&alt).is_empty(),
            is_cmat,
            "cmat_divergence disagrees about {name}"
        );
        // Hashing must round-trip through deck text identically.
        assert_eq!(
            deck_hash(&parse_deck(&write_deck(&alt)).unwrap(), 20),
            deck_hash(&alt, 20)
        );
    }
    let mut cadence = base.clone();
    cadence.steps_per_report += 1;
    assert_ne!(deck_hash(&cadence, 20), h, "hash is blind to steps_per_report");
    assert_ne!(deck_hash(&base, 21), h, "hash is blind to steps");
}

/// Golden snapshots: these exact values are what existing stores are keyed
/// by. If this test fails, the encoding changed — bump the `xgd` version
/// tag (orphaning old stores *loudly*) rather than updating the constants.
#[test]
fn golden_hashes_are_stable() {
    let small = deck_hash(&CgyroInput::test_small(), 40);
    let medium = deck_hash(&CgyroInput::test_medium(), 40);
    assert_eq!(small.to_string(), "xgd1-ba615d0591055165");
    assert_eq!(medium.to_string(), "xgd1-86b9adbdddbf6467");
    // And they parse back to themselves.
    assert_eq!(small.to_string().parse::<xg_artifact::DeckHash>().unwrap(), small);
}

/// Decks written before the str-reduction knob was removed carry a
/// `REDUCE_ALGO=` line. It must parse to the same input (and so the same
/// hash) as the deck without it, or every stored journal and cache entry
/// keyed by such a deck would be orphaned.
#[test]
fn legacy_reduce_algo_line_is_ignored() {
    let input = CgyroInput::test_small();
    let text = write_deck(&input);
    for value in ["auto", "fused", "reduce-scatter", "unfused"] {
        let legacy = text.replace("N_SPECIES=", &format!("REDUCE_ALGO={value}\nN_SPECIES="));
        assert_ne!(legacy, text);
        let parsed = parse_deck(&legacy).expect("legacy key is accepted");
        assert_eq!(parsed, input);
        assert_eq!(deck_hash(&parsed, 40), deck_hash(&input, 40));
    }
}
