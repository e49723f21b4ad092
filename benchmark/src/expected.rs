//! The expected-output file (`expected.json`): verdicts, states and
//! transitions of every Fig. 9 row and shipped spec the benchmark verifies.
//!
//! It is a regression reference, recorded once with `effpi-benchmark
//! expected` on the code the benchmark was defined on — not ground truth.
//! An independent μ-calculus oracle is the planned replacement.

use std::collections::BTreeMap;

use wire::Json;

/// What one verification must produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub states: usize,
    pub transitions: usize,
    /// `(property name, holds)` in check order.
    pub verdicts: Vec<(String, bool)>,
}

impl Outcome {
    pub fn of_report(report: &effpi::Report) -> Outcome {
        Outcome {
            states: report.states(),
            transitions: report.transitions(),
            verdicts: report
                .properties
                .iter()
                .map(|p| (p.property.name().to_string(), p.holds()))
                .collect(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("states", Json::Num(self.states as f64)),
            ("transitions", Json::Num(self.transitions as f64)),
            (
                "verdicts",
                Json::Arr(
                    self.verdicts
                        .iter()
                        .map(|(n, h)| Json::Arr(vec![Json::str(n.clone()), Json::Bool(*h)]))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Outcome, String> {
        let count = |k: &str| {
            json.get(k)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("outcome without {k}"))
        };
        let verdicts = json
            .get("verdicts")
            .and_then(Json::as_arr)
            .ok_or("outcome without verdicts")?
            .iter()
            .map(|v| match v.as_arr() {
                Some([Json::Str(n), Json::Bool(h)]) => Ok((n.clone(), *h)),
                _ => Err(format!("malformed verdict {v}")),
            })
            .collect::<Result<_, _>>()?;
        Ok(Outcome {
            states: count("states")?,
            transitions: count("transitions")?,
            verdicts,
        })
    }
}

/// The parsed expected file.
#[derive(Clone, Debug)]
pub struct Expected(BTreeMap<String, Outcome>);

impl Expected {
    pub fn load() -> Expected {
        Expected::parse(include_str!("../expected.json")).expect("expected.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let json = Json::parse(text)?;
        let Some(Json::Obj(entries)) = json.get("outcomes") else {
            return Err("expected.json without an \"outcomes\" object".into());
        };
        entries
            .iter()
            .map(|(k, v)| Ok((k.clone(), Outcome::from_json(v)?)))
            .collect::<Result<_, String>>()
            .map(Expected)
    }

    pub fn get(&self, name: &str) -> Option<&Outcome> {
        self.0.get(name)
    }

    pub fn check(&self, name: &str, got: &Outcome) -> Result<(), String> {
        match self.get(name) {
            None => Err(format!("{name}: no expected outcome recorded")),
            Some(want) if want != got => Err(format!(
                "{name}: got {} expected {}",
                got.to_json(),
                want.to_json()
            )),
            Some(_) => Ok(()),
        }
    }
}

/// Computes the expected file's contents on the code as it stands: every
/// scale-1 Fig. 9 row, every scale-0 row and every shipped spec.
pub fn record() -> Json {
    use effpi::protocols::fig9_scenarios;
    use effpi::Session;
    let outcome = Outcome::of_report;
    let session = Session::builder().parallelism(crate::sys::nproc()).build();
    let mut outcomes = BTreeMap::new();
    for s in fig9_scenarios(crate::fig9::SCALE) {
        outcomes.insert(s.name.clone(), outcome(&session.run_scenario(&s)).to_json());
    }
    for base in crate::population::bases() {
        let report = session
            .run_spec_text(&base.text())
            .unwrap_or_else(|e| panic!("{}: {e}", base.name));
        outcomes.insert(base.name.clone(), outcome(&report).to_json());
    }
    Json::obj([
        (
            "note",
            Json::str(
                "Regression reference, not ground truth: recorded with `effpi-benchmark expected` \
                 on the code the benchmark was defined on.",
            ),
        ),
        ("outcomes", Json::Obj(outcomes)),
    ])
}
