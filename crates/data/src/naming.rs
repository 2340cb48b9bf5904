//! Description finalization: every instruction ends with a short naming
//! sentence so the module's name sits at the *tail* of the prompt.
//!
//! Rationale: the laptop-scale LMs that stand in for the paper's models
//! (none is available offline) condition on a bounded
//! context window, so the token span immediately preceding
//! `### Response:` carries the most signal. Real instruction datasets
//! commonly restate the required module name at the end; we standardize
//! that convention across both the training corpus and the benchmark
//! prompts (the same convention, so there is no train/test mismatch).

/// Appends the naming sentence to a description, choosing one of three
/// stable phrasings by name hash (diversity without prompt instability).
pub fn with_naming_tail(description: &str, module_name: &str) -> String {
    let h = module_name
        .bytes()
        .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
    let tail = match h % 3 {
        0 => format!(" Name the module \"{module_name}\"."),
        1 => format!(" The module must be named \"{module_name}\"."),
        _ => format!(" Call the module \"{module_name}\"."),
    };
    let mut out = description.trim_end().to_string();
    out.push_str(&tail);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_contains_name_and_is_stable() {
        let a = with_naming_tail("Build a counter.", "counter_3");
        let b = with_naming_tail("Build a counter.", "counter_3");
        assert_eq!(a, b);
        assert!(a.ends_with('.'));
        assert!(a.contains("\"counter_3\""));
        assert!(a.starts_with("Build a counter."));
    }

    #[test]
    fn different_names_may_choose_different_phrasings() {
        let set: std::collections::HashSet<String> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|n| {
                with_naming_tail("X.", n)
                    .trim_start_matches("X.")
                    .to_string()
            })
            .collect();
        assert!(set.len() >= 2, "expected phrasing diversity, got {set:?}");
    }
}
