//! Parameterized RTL module generators with golden reference models.
//!
//! Each family function takes a seeded RNG and produces a
//! [`crate::iface::GeneratedModule`] with randomized
//! module/signal names, widths, and description phrasing — the synthetic
//! substitute for the paper's GitHub + MG-Verilog + RTLCoder corpus.
//!
//! The emitted Verilog deliberately uses width-explicit idioms (e.g.
//! `{1'b0, a} + {1'b0, b}` for carry capture) so that the behavioral
//! simulator's self-determined width evaluation matches real Verilog
//! semantics.

pub mod comb;
pub mod seq;

use crate::iface::GeneratedModule;
use rand::rngs::SmallRng;
use rand::Rng;

/// A corpus family: its name and generator function.
pub type Family = (&'static str, fn(&mut SmallRng) -> GeneratedModule);

/// Every registered family, combinational and sequential.
pub fn all_families() -> Vec<Family> {
    let mut v = comb::families();
    v.extend(seq::families());
    v
}

/// Picks one item from a slice.
pub(crate) fn pick<'a, T: ?Sized>(rng: &mut SmallRng, items: &[&'a T]) -> &'a T {
    items[rng.gen_range(0..items.len())]
}

/// Picks a width in `[lo, hi]`.
pub(crate) fn pick_width(rng: &mut SmallRng, lo: u32, hi: u32) -> u32 {
    rng.gen_range(lo..=hi)
}

/// Occasionally appends a numeric suffix to diversify module names.
pub(crate) fn vary_name(rng: &mut SmallRng, base: &str) -> String {
    match rng.gen_range(0..4u8) {
        0 => base.to_string(),
        1 => format!("{base}_{}", rng.gen_range(0..8u8)),
        2 => format!("my_{base}"),
        _ => format!("{base}_unit"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn registry_is_populated_and_distinct() {
        let fams = all_families();
        assert!(
            fams.len() >= 20,
            "expect at least 20 families, got {}",
            fams.len()
        );
        let mut names: Vec<&str> = fams.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fams.len(), "family names must be unique");
    }

    #[test]
    fn every_family_generates_parseable_verilog() {
        let mut rng = SmallRng::seed_from_u64(42);
        for (name, gen) in all_families() {
            for _ in 0..3 {
                let m = gen(&mut rng);
                assert!(
                    verispec_verilog::parse(&m.source).is_ok(),
                    "family {name} generated unparseable code:\n{}",
                    m.source
                );
                assert!(!m.description.is_empty(), "family {name} lacks description");
                assert_eq!(m.family, name);
            }
        }
    }
}
