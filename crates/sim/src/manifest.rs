//! The reproducibility helpers of a run record: the git revision it is
//! stamped with ([`git_rev`]), the hash its configuration key is reduced to
//! ([`fnv1a64`]) and the string escaping of its hand-rolled JSON
//! ([`escape_json`]; the workspace has no serde dependency). The record
//! itself — one JSON document per finished run, written by `noc run
//! --manifest` and stored by the campaign cache — is
//! `noc_campaign::PointResult`; see `docs/METRICS.md` for its fields.

use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON document.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// 64-bit FNV-1a hash (stable, dependency-free; used for config hashes).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The git revision to stamp into run records: the `NOC_GIT_REV` environment
/// variable when set, otherwise `git rev-parse --short=12 HEAD`, otherwise
/// `"unknown"` (e.g. outside a checkout).
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("NOC_GIT_REV") {
        let rev = rev.trim();
        if !rev.is_empty() {
            return rev.to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain"), "plain");
    }
}
