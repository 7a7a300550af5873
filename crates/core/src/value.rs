//! Comparison semantics for XQ conditions.
//!
//! The fragment compares string values of nodes (paper Fig. 6:
//! `var/axis::ν RelOp string`). Following XPath 1.0 practice — and because
//! the XMark queries compare prices and incomes — operands that are both
//! XPath 1.0 numerals, `S? '-'? (Digits ('.' Digits?)? | '.' Digits) S?`
//! with `Digits ::= [0-9]+` and `S` XML whitespace, are compared
//! numerically; otherwise lexicographically. `NaN`, `inf`, `Infinity`,
//! `1e3` and `+5` are strings, although Rust's `f64` parser accepts them.
//! Comparisons over node sets are existential: `$x/p = "v"` holds when
//! *some* matched node's string value satisfies the relation.

use gcx_query::RelOp;

/// Compares two string values under `op`, numerically when both sides
/// are numerals (module docs).
pub fn compare_values(left: &str, right: &str, op: RelOp) -> bool {
    if let (Some(a), Some(b)) = (numeral(left), numeral(right)) {
        return match op {
            RelOp::Le => a <= b,
            RelOp::Lt => a < b,
            RelOp::Eq => a == b,
            RelOp::Ne => a != b,
            RelOp::Ge => a >= b,
            RelOp::Gt => a > b,
        };
    }
    match op {
        RelOp::Le => left <= right,
        RelOp::Lt => left < right,
        RelOp::Eq => left == right,
        RelOp::Ne => left != right,
        RelOp::Ge => left >= right,
        RelOp::Gt => left > right,
    }
}

/// The value of an XPath 1.0 numeral (module docs), `None` otherwise.
fn numeral(s: &str) -> Option<f64> {
    let t = s.trim_matches(|c| matches!(c, ' ' | '\t' | '\r' | '\n'));
    let body = t.strip_prefix('-').unwrap_or(t).as_bytes();
    // Digits and at most one '.', with at least one digit.
    let dots = body.iter().filter(|&&b| b == b'.').count();
    let ok =
        dots <= 1 && body.len() > dots && body.iter().all(|&b| b.is_ascii_digit() || b == b'.');
    ok.then(|| t.parse().ok()).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_when_both_numeric() {
        assert!(compare_values("9", "10", RelOp::Lt), "9 < 10 numerically");
        assert!(!compare_values("9", "10", RelOp::Gt));
        assert!(compare_values("2.5", "2.50", RelOp::Eq));
        assert!(compare_values(" 42 ", "42", RelOp::Eq), "trimmed");
    }

    #[test]
    fn string_when_not_numeric() {
        assert!(compare_values("9a", "10a", RelOp::Gt), "lexicographic");
        assert!(compare_values("abc", "abd", RelOp::Lt));
        assert!(compare_values("person0", "person0", RelOp::Eq));
        assert!(compare_values("a", "b", RelOp::Ne));
    }

    #[test]
    fn numeral_forms() {
        assert!(compare_values("5.", "5", RelOp::Eq));
        assert!(compare_values(".5", "0.5", RelOp::Eq));
        assert!(compare_values("-.5", "-0.5", RelOp::Eq));
        assert!(compare_values("\t-3\n", "-3.0", RelOp::Eq));
        assert!(compare_values("-0", "0", RelOp::Eq));
        assert!(!compare_values(".", ".", RelOp::Ne), "`.` is a string");
        assert!(!compare_values("-", "-", RelOp::Ne), "`-` is a string");
    }

    #[test]
    fn nan_is_a_string() {
        assert!(compare_values("NaN", "NaN", RelOp::Eq));
        assert!(!compare_values("NaN", "NaN", RelOp::Ne));
        assert!(compare_values("nan", "NaN", RelOp::Gt), "lexicographic");
    }

    #[test]
    fn infinities_are_strings() {
        assert!(!compare_values("inf", "Infinity", RelOp::Eq));
        assert!(!compare_values("-inf", "-infinity", RelOp::Eq));
        assert!(compare_values("inf", "Infinity", RelOp::Ne));
    }

    #[test]
    fn exponents_are_strings() {
        assert!(!compare_values("1e3", "1000", RelOp::Eq));
        assert!(compare_values("1e3", "1000", RelOp::Gt), "lexicographic");
        assert!(!compare_values("2.5E1", "25", RelOp::Eq));
    }

    #[test]
    fn plus_sign_is_a_string() {
        assert!(!compare_values("+5", "5", RelOp::Eq));
        assert!(compare_values("+5", "5", RelOp::Lt), "'+' sorts before '5'");
    }

    #[test]
    fn mixed_falls_back_to_string() {
        assert!(!compare_values("10", "ten", RelOp::Eq));
        assert!(compare_values("10", "ten", RelOp::Ne));
    }
}
