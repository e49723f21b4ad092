//! The `serve_open` spec population: the shipped `examples/specs`, the
//! scale-0 Fig. 9 scenarios rendered as `.effpi` text, and seeded variants of
//! both.
//!
//! * Alias and whitespace variants are normalisation-equivalent to their
//!   base, so they share its cache key: sending one repeats a key.
//! * Check-list variants verify an ordered subset of the base's checks, which
//!   is a new key: sending one is a first sighting, a cold verification of
//!   the base's whole LTS.

use std::collections::BTreeSet;

use effpi::protocols::{fig9_scenarios, Scenario};
use effpi::Property;

use crate::expected::{Expected, Outcome};
use crate::stats::Rng;

const KEYWORDS: [&str; 6] = ["def", "env", "visible", "type", "term", "check"];

/// One base spec: its statements, and the name of its expected outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Base {
    pub name: String,
    statements: Vec<String>,
}

fn names(vars: &[effpi::Name]) -> String {
    vars.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// A property in `check` statement syntax.
pub fn check_text(p: &Property) -> String {
    match p {
        Property::NonUsage { vars } => format!("non_usage [{}]", names(vars)),
        Property::DeadlockFree { vars } => format!("deadlock_free [{}]", names(vars)),
        Property::EventualOutput { vars } => format!("eventual_output [{}]", names(vars)),
        Property::Forwarding { from, to } => format!("forwarding {from} -> {to}"),
        Property::Reactive { var } => format!("reactive {var}"),
        Property::Responsive { var } => format!("responsive {var}"),
    }
}

/// A scenario as `.effpi` text: its environment, visible channels, type and
/// six checks.
pub fn render_scenario(s: &Scenario) -> String {
    let mut out = format!("// {}\n", s.name);
    for (x, t) in s.env.iter() {
        out += &format!("env {x} : {t}\n");
    }
    out += &format!("visible {}\n", names(&s.visible));
    out += &format!("type {}\n", s.ty);
    for p in &s.properties {
        out += &format!("check {}\n", check_text(p));
    }
    out
}

/// Splits spec text into statements the way `effpi::spec` does: a statement
/// starts on a line whose first word is a keyword and runs to the next one.
fn statements(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with("//") || line.starts_with('#') {
            continue;
        }
        let first = line.split_whitespace().next().unwrap_or_default();
        match out.last_mut() {
            Some(stmt) if !KEYWORDS.contains(&first) => {
                stmt.push(' ');
                stmt.push_str(line);
            }
            _ => out.push(line.to_string()),
        }
    }
    out
}

/// The bases, in a fixed order: the shipped specs, then the scale-0 rows.
pub fn bases() -> Vec<Base> {
    let mut out = vec![
        Base {
            name: "examples/specs/payment.effpi".into(),
            statements: statements(include_str!("../../examples/specs/payment.effpi")),
        },
        Base {
            name: "examples/specs/send_once.effpi".into(),
            statements: statements(include_str!("../../examples/specs/send_once.effpi")),
        },
    ];
    for s in fig9_scenarios(0) {
        out.push(Base {
            name: format!("{} (scale 0)", s.name),
            statements: statements(&render_scenario(&s)),
        });
    }
    out
}

impl Base {
    fn checks(&self) -> Vec<usize> {
        (0..self.statements.len())
            .filter(|&i| self.statements[i].starts_with("check"))
            .collect()
    }

    /// The base text itself.
    pub fn text(&self) -> String {
        self.statements.join("\n") + "\n"
    }

    /// A variant verifying the base's checks at `order` (indices into its
    /// check list), in that order.
    pub fn with_checks(&self, order: &[usize]) -> String {
        let checks = self.checks();
        let mut kept: Vec<String> = self
            .statements
            .iter()
            .filter(|s| !s.starts_with("check"))
            .cloned()
            .collect();
        kept.extend(order.iter().map(|&i| self.statements[checks[i]].clone()));
        kept.join("\n") + "\n"
    }

    /// The expected outcome of [`Base::with_checks`]: the same LTS, the
    /// selected verdicts.
    pub fn expected_with_checks(&self, expected: &Expected, order: &[usize]) -> Option<Outcome> {
        let base = expected.get(&self.name)?;
        Some(Outcome {
            states: base.states,
            transitions: base.transitions,
            verdicts: order.iter().map(|&i| base.verdicts[i].clone()).collect(),
        })
    }

    pub fn check_count(&self) -> usize {
        self.checks().len()
    }
}

/// A normalisation-equivalent rewrite of `text`: some `env` types moved into
/// `def` aliases, comments and blank lines inserted, spacing changed. The
/// cache key stays the same.
pub fn equivalent_variant(text: &str, rng: &mut Rng) -> String {
    let mut out = String::new();
    for (n, stmt) in statements(text).into_iter().enumerate() {
        if rng.below(3) == 0 {
            out += &format!("// variant note {}\n\n", rng.next_u64() % 1000);
        }
        let stmt = match stmt.strip_prefix("env ").and_then(|r| r.split_once(':')) {
            Some((x, ty)) if rng.below(2) == 0 => {
                let alias = format!("BenchAlias{n}x{}", rng.below(100));
                out += &format!("def {alias} = {}\n", ty.trim());
                format!("env {} : {alias}", x.trim())
            }
            _ if rng.below(2) == 0 => stmt.replace(", ", ",   "),
            _ => stmt,
        };
        out += &stmt;
        out += if rng.below(2) == 0 { "  \n" } else { "\n" };
    }
    out + "// end of variant\n"
}

/// One request of the schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    /// Due time, seconds after the schedule starts.
    pub at: f64,
    pub text: String,
    /// Index of the key (first sightings number keys in order).
    pub key: usize,
    /// Index of the key's base in [`bases`].
    pub base: usize,
    pub repeat: bool,
    pub expected: Outcome,
}

/// An open-loop Poisson schedule at `rate` requests/s for `seconds`: the
/// `rate · seconds` arrivals are uniform over the run, which is a Poisson
/// process conditioned on its count. `repeat_share` of the requests re-send
/// a key first sent at least `min_age` seconds earlier (a hit, once that
/// reply is cached); the rest are first sightings of a new key. Counts and
/// the mix of cold verifications are fixed, so seeds differ only in timing,
/// order and variants.
pub fn schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    repeat_share: f64,
    min_age: f64,
    expected: &Expected,
) -> Vec<Planned> {
    let bases = bases();
    let mut rng = Rng::new(seed);
    let mut used: BTreeSet<(usize, Vec<usize>)> = BTreeSet::new();
    // (first due time, text, expected outcome, base) per key.
    let mut keys: Vec<(f64, String, Outcome, usize)> = Vec::new();
    let mut out = Vec::new();
    let mut walk: Vec<usize> = (0..bases.len()).collect();
    let mut cursor = 0;
    let mut arrivals: Vec<f64> = (0..(rate * seconds).round() as usize)
        .map(|_| rng.unit() * seconds)
        .collect();
    arrivals.sort_by(f64::total_cmp);
    // Repeats are dealt out evenly: one whenever a whole repeat's worth of
    // share has accrued. Until an old enough key exists, the share does not
    // pile up into a burst of repeats.
    let mut credit = 0.0f64;
    for at in arrivals {
        let old = keys.partition_point(|k| k.0 + min_age <= at);
        credit += repeat_share;
        if old == 0 {
            credit = credit.min(1.0);
        }
        if old > 0 && credit >= 1.0 {
            credit -= 1.0;
            let key = rng.below(old);
            let text = match rng.below(3) {
                0 => keys[key].1.clone(),
                _ => equivalent_variant(&keys[key].1, &mut rng),
            };
            out.push(Planned {
                at,
                text,
                key,
                base: keys[key].3,
                repeat: true,
                expected: keys[key].2.clone(),
            });
            continue;
        }
        let (b, order) = loop {
            // First sightings walk the bases in a seeded order, so every
            // seed gives the same mix of cold verifications.
            if cursor == 0 {
                rng.shuffle(&mut walk);
            }
            let b = walk[cursor];
            cursor = (cursor + 1) % walk.len();
            let n = bases[b].check_count();
            let mut order: Vec<usize> = (0..n).collect();
            if used.contains(&(b, order.clone())) {
                if n == 0 {
                    continue;
                }
                rng.shuffle(&mut order);
                order.truncate(1 + rng.below(n));
            }
            if used.insert((b, order.clone())) {
                break (b, order);
            }
        };
        let expected = bases[b]
            .expected_with_checks(expected, &order)
            .unwrap_or_else(|| panic!("no expected outcome for {}", bases[b].name));
        let text = bases[b].with_checks(&order);
        let key = keys.len();
        keys.push((at, text.clone(), expected.clone(), b));
        out.push(Planned {
            at,
            text,
            key,
            base: b,
            repeat: false,
            expected,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use effpi::spec::parse_spec;
    use effpi::Session;

    #[test]
    fn rendered_scenarios_reproduce_run_scenario() {
        for s in fig9_scenarios(0) {
            let want = Outcome::of_report(&Session::new().run_scenario(&s));
            let text = render_scenario(&s);
            let got = Session::new()
                .run_spec_text(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", s.name));
            assert!(got.error.is_none(), "{}: {:?}", s.name, got.error);
            assert_eq!(Outcome::of_report(&got), want, "{}", s.name);
        }
    }

    #[test]
    fn equivalent_variants_share_keys_and_check_lists_do_not() {
        let session = Session::new();
        let key = |text: &str| session.cache_key(&parse_spec(text).expect("variant parses"));
        let mut rng = Rng::new(11);
        for base in bases() {
            let text = base.text();
            for _ in 0..4 {
                let variant = equivalent_variant(&text, &mut rng);
                assert_ne!(variant, text);
                assert_eq!(key(&variant), key(&text), "{}:\n{variant}", base.name);
            }
            let n = base.check_count();
            if n > 1 {
                let reversed: Vec<usize> = (0..n).rev().collect();
                assert_ne!(key(&base.with_checks(&reversed)), key(&text));
                assert_ne!(key(&base.with_checks(&[0])), key(&text));
                assert_ne!(key(&base.with_checks(&[0])), key(&base.with_checks(&[1])));
            }
        }
    }

    #[test]
    fn same_seed_same_schedule_and_population() {
        let expected = Expected::load();
        let a = schedule(5, 50.0, 4.0, 0.7, 0.5, &expected);
        let b = schedule(5, 50.0, 4.0, 0.7, 0.5, &expected);
        let c = schedule(6, 50.0, 4.0, 0.7, 0.5, &expected);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(bases(), bases());
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        let repeats = a.iter().filter(|p| p.repeat).count() as f64 / a.len() as f64;
        assert!((0.5..0.8).contains(&repeats), "repeat share {repeats}");
        assert!(a.iter().all(|p| !p.repeat
            || a[..]
                .iter()
                .any(|q| q.key == p.key && !q.repeat && q.at + 0.5 <= p.at)));
    }
}
