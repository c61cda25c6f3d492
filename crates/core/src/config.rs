//! The router schemes: the paper's five pseudo-circuit configurations and
//! the two comparators, each named once in [`TABLE`].

use std::fmt;

/// A router scheme: one of the paper's five configurations (its Figs. 8–12
/// use exactly these labels), Express Virtual Channels (its Fig. 14), or He &
/// Cao's profiled hybrid. An opaque value built by the constructors below or
/// read by [`Scheme::parse`], so every value is a scheme that exists;
/// [`PcRouterFactory`](crate::PcRouterFactory) builds its routers.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Scheme(pub(crate) Kind);

/// What a [`Scheme`] is. Speculation and buffer bypassing exist only as
/// extensions of the pseudo-circuit scheme, so they are its fields.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub(crate) enum Kind {
    /// The speculative two-stage router, holding no circuit.
    #[default]
    Baseline,
    /// Reuse of crossbar connections to bypass switch arbitration (§III),
    /// with or without speculatively restoring terminated circuits on idle
    /// outputs (§IV.A) and skipping the buffer write through the bypass
    /// latch (§IV.B).
    Pseudo {
        speculation: bool,
        buffer_bypass: bool,
    },
    /// Express Virtual Channels.
    Evc,
    /// Profiled hybrid switching: [`Scheme::pseudo`] with establishment
    /// gated by a hot-flow profile ([`crate::hybrid`]).
    Hybrid,
}

/// Every scheme with its canonical name (what `--scheme` and a campaign's
/// `scheme` axis take) and its report label (what a run record stamps and
/// the config hash keys on), in display order.
const TABLE: &[(Scheme, &str, &str)] = &[
    (Scheme::baseline(), "baseline", "Baseline"),
    (Scheme::pseudo(), "pseudo", "Pseudo"),
    (Scheme::pseudo_ps(), "pseudo+ps", "Pseudo+PS"),
    (Scheme::pseudo_bb(), "pseudo+bb", "Pseudo+BB"),
    (Scheme::pseudo_ps_bb(), "pseudo+ps+bb", "Pseudo+PS+BB"),
    (Scheme::evc(), "evc", "EVC"),
    (Scheme::hybrid(), "hybrid", "Hybrid"),
];

impl Scheme {
    /// Every scheme, in display order.
    pub const ALL: [Scheme; TABLE.len()] = {
        let mut all = [Scheme::baseline(); TABLE.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = TABLE[i].0;
            i += 1;
        }
        all
    };

    /// The baseline speculative two-stage router, no pseudo-circuits.
    pub const fn baseline() -> Self {
        Self(Kind::Baseline)
    }

    /// `Pseudo`: the basic pseudo-circuit scheme.
    pub const fn pseudo() -> Self {
        Self::circuits(false, false)
    }

    /// `Pseudo+PS`: with pseudo-circuit speculation.
    pub const fn pseudo_ps() -> Self {
        Self::circuits(true, false)
    }

    /// `Pseudo+BB`: with buffer bypassing.
    pub const fn pseudo_bb() -> Self {
        Self::circuits(false, true)
    }

    /// `Pseudo+PS+BB`: both aggressive schemes (the paper's headline
    /// configuration).
    pub const fn pseudo_ps_bb() -> Self {
        Self::circuits(true, true)
    }

    /// Express Virtual Channels (dynamic EVCs, `l_max = 2`; [`crate::evc`]).
    pub const fn evc() -> Self {
        Self(Kind::Evc)
    }

    /// Profiled hybrid switching ([`crate::hybrid`]).
    pub const fn hybrid() -> Self {
        Self(Kind::Hybrid)
    }

    const fn circuits(speculation: bool, buffer_bypass: bool) -> Self {
        Self(Kind::Pseudo {
            speculation,
            buffer_bypass,
        })
    }

    /// The five configurations of the paper's figures, in plot order.
    pub fn paper_lineup() -> [Scheme; 5] {
        [
            Self::baseline(),
            Self::pseudo(),
            Self::pseudo_ps(),
            Self::pseudo_bb(),
            Self::pseudo_ps_bb(),
        ]
    }

    /// The scheme whose canonical name is `name`, in any letter case.
    pub fn parse(name: &str) -> Option<Scheme> {
        let row = TABLE.iter().find(|row| row.1.eq_ignore_ascii_case(name));
        row.map(|row| row.0)
    }

    /// The canonical lower-case name (`parse(canonical()) == Some(self)`).
    pub fn canonical(self) -> &'static str {
        self.row().1
    }

    fn row(self) -> &'static (Scheme, &'static str, &'static str) {
        let row = TABLE.iter().find(|row| row.0 == self);
        row.expect("every scheme has a row")
    }
}

/// The report label (`Pseudo+PS+BB`, `EVC`).
impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.row().2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Scheme::baseline().to_string(), "Baseline");
        assert_eq!(Scheme::pseudo().to_string(), "Pseudo");
        assert_eq!(Scheme::pseudo_ps().to_string(), "Pseudo+PS");
        assert_eq!(Scheme::pseudo_bb().to_string(), "Pseudo+BB");
        assert_eq!(Scheme::pseudo_ps_bb().to_string(), "Pseudo+PS+BB");
        assert_eq!(Scheme::evc().to_string(), "EVC");
        assert_eq!(Scheme::hybrid().to_string(), "Hybrid");
    }

    #[test]
    fn lineup_is_ordered() {
        let lineup = Scheme::paper_lineup();
        assert_eq!(lineup, Scheme::ALL[..5]);
        assert_eq!(lineup[0], Scheme::baseline());
        assert_eq!(lineup[4], Scheme::pseudo_ps_bb());
    }

    #[test]
    fn every_scheme_has_one_row_and_round_trips_its_name() {
        for (i, scheme) in Scheme::ALL.into_iter().enumerate() {
            assert!(!Scheme::ALL[..i].contains(&scheme), "{scheme} twice");
            assert_eq!(Scheme::parse(scheme.canonical()), Some(scheme));
            assert_eq!(
                Scheme::parse(&scheme.canonical().to_uppercase()),
                Some(scheme)
            );
        }
        assert_eq!(Scheme::parse("full"), None);
        assert_eq!(Scheme::default(), Scheme::baseline());
    }
}
