//! The shared `pypmc` command-line vocabulary.
//!
//! Every `pypmc` subcommand used to hand-roll its own flag loop; this
//! module is the one place the parsing machinery and the shared flag
//! vocabularies live. [`Spec`] declares what a subcommand accepts,
//! [`parse_args`]/[`parse_or_usage`] parse against it under the CLI's
//! loud-failure contract (unknown flags, missing flag values and
//! out-of-range positional counts exit 2 with a usage line), and the
//! helpers below implement the vocabularies shared by `compile`, `dump`
//! and `serve`. `--config` and the serve key `config=` are the same
//! parser, so that flag and its `key=value` twin can never drift apart;
//! the policy and the matcher are flags only:
//!
//! * **library configurations** ([`lib_config`]) —
//!   `baseline|fmha|epilog|both|all`, each optionally suffixed
//!   `+synthN` to append `N` synthetic never-matching rules
//!   (`all+synth39` is the 4×-rules benchmark point; see
//!   [`LibraryConfig::with_synth`]),
//! * **sweep policies** ([`resolve_policy`]) — `restart|incremental`
//!   behind `--sweep-policy`, defaulting to the engine's
//!   [`SweepPolicy::default`],
//! * **matcher backends** ([`resolve_matcher`]) —
//!   `per-pattern|fused` behind `--matcher`, defaulting to fused,
//! * **retired axes** ([`retired`]) — `--jobs 1` / `jobs=1` and the
//!   serve keys `policy=incremental` / `matcher=fused` are no-ops,
//!   anything else names the retirement.

use crate::dsl::LibraryConfig;
use crate::engine::{MatcherBackend, SweepPolicy};

/// What one subcommand accepts: its usage line, the positional-argument
/// count range, and its flag vocabulary.
pub struct Spec {
    /// The usage line printed under every parse error.
    pub usage: &'static str,
    /// Inclusive (min, max) count of positional arguments.
    pub positionals: (usize, usize),
    /// Flags taking a value (`--flag VALUE`).
    pub value_flags: &'static [&'static str],
    /// Boolean flags.
    pub bool_flags: &'static [&'static str],
}

/// A parsed command line: positionals in order, flags by name.
#[derive(Debug)]
pub struct Parsed {
    /// Positional arguments, in order.
    pub positionals: Vec<String>,
    /// `(flag, value)` pairs, in order of appearance.
    pub values: Vec<(String, String)>,
    /// Boolean flags seen.
    pub bools: Vec<String>,
}

impl Parsed {
    /// The first value given for `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the boolean `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.bools.iter().any(|f| f == flag)
    }
}

/// Parses `args` against `spec`. Unknown flags, missing flag values and
/// out-of-range positional counts are errors — `pypmc compile bert
/// --polcy restart` must fail loudly, not silently run the default
/// policy.
///
/// # Errors
///
/// Returns the human-readable reason; the caller prints it with the
/// spec's usage line and exits 2 (or uses [`parse_or_usage`], which
/// does both).
pub fn parse_args(spec: &Spec, args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        positionals: Vec::new(),
        values: Vec::new(),
        bools: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with('-') && arg.len() > 1 {
            if spec.value_flags.contains(&arg.as_str()) {
                let Some(value) = it.next() else {
                    return Err(format!("missing value for {arg}"));
                };
                parsed.values.push((arg.clone(), value.clone()));
            } else if spec.bool_flags.contains(&arg.as_str()) {
                parsed.bools.push(arg.clone());
            } else {
                return Err(format!("unknown flag {arg}"));
            }
        } else {
            parsed.positionals.push(arg.clone());
        }
    }
    let (min, max) = spec.positionals;
    let n = parsed.positionals.len();
    if n < min {
        return Err("missing required argument".to_owned());
    }
    if n > max {
        return Err(format!("unexpected argument '{}'", parsed.positionals[max]));
    }
    Ok(parsed)
}

/// Parses or prints the error + usage line and returns exit code 2.
///
/// # Errors
///
/// The error side carries the process exit code (always 2), after the
/// diagnostic has already been printed to stderr.
pub fn parse_or_usage(spec: &Spec, args: &[String]) -> Result<Parsed, i32> {
    parse_args(spec, args).map_err(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: {}", spec.usage);
        2
    })
}

/// The `--config` / `config=` vocabulary shared by `pypmc compile`,
/// `pypmc dump` and the serve protocol: a base configuration
/// (`baseline|fmha|epilog|both|all`), optionally suffixed `+synthN` to
/// append `N` synthetic never-matching rules for matcher-scaling
/// experiments (`all+synth39` ≈ 4× the rule-bearing pattern count; the
/// server refuses the suffix before calling this). `None` for anything
/// else — including a synth count that is not plain ASCII digits or
/// exceeds [`LibraryConfig::MAX_SYNTH`].
pub fn lib_config(name: &str) -> Option<LibraryConfig> {
    let (base, synth) = match name.split_once("+synth") {
        Some((base, digits)) => {
            let n = Some(digits)
                .filter(|d| d.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|d| d.parse::<u16>().ok())
                .filter(|&n| n <= LibraryConfig::MAX_SYNTH)?;
            (base, Some(n))
        }
        None => (name, None),
    };
    let config = match base {
        "baseline" => LibraryConfig::none(),
        "fmha" => LibraryConfig::fmha_only(),
        "epilog" => LibraryConfig::epilog_only(),
        "both" => LibraryConfig::both(),
        "all" => LibraryConfig::all(),
        _ => return None,
    };
    Some(match synth {
        Some(n) => config.with_synth(n),
        None => config,
    })
}

/// Resolves the sweep policy from `--sweep-policy`, falling back to the
/// engine default ([`SweepPolicy::default`]).
///
/// # Errors
///
/// Names the unknown policy and the accepted vocabulary.
pub fn resolve_policy(parsed: &Parsed) -> Result<SweepPolicy, String> {
    let Some(name) = parsed.value("--sweep-policy") else {
        return Ok(SweepPolicy::default());
    };
    SweepPolicy::parse(name).ok_or_else(|| {
        let vocabulary = SweepPolicy::ALL.map(SweepPolicy::name).join("|");
        format!("unknown sweep policy {name} (want {vocabulary})")
    })
}

/// Resolves the match backend from `--matcher`, falling back to the
/// engine default ([`MatcherBackend::Fused`]).
///
/// # Errors
///
/// Names the unknown backend and the accepted vocabulary.
pub fn resolve_matcher(parsed: &Parsed) -> Result<MatcherBackend, String> {
    let Some(name) = parsed.value("--matcher") else {
        return Ok(MatcherBackend::default());
    };
    MatcherBackend::parse(name).ok_or_else(|| {
        let vocabulary = MatcherBackend::ALL.map(MatcherBackend::name).join("|");
        format!("unknown matcher backend {name} (want {vocabulary})")
    })
}

/// Answers a retired axis — `--jobs` / `jobs=` (the parallel match
/// phase won no cell against the serial pass: ROADMAP.md, PR 16) and
/// the serve keys `policy=` / `matcher=` (the server compiles the
/// defaults only; the oracles stay `pypmc compile` flags): exactly
/// `only`, the one value the axis still has, is a no-op — scripts that
/// pinned it keep working — and anything else is an error.
///
/// # Errors
///
/// The retirement message (the CLI prints it with its usage line and
/// exits 2; the server answers `BAD_REQUEST` with it).
pub fn retired(key: &str, value: &str, only: &str) -> Result<(), String> {
    if value == only {
        return Ok(());
    }
    Err(match key {
        "jobs" => format!(
            "jobs {value} is not accepted: the jobs axis is retired (no parallel \
             configuration beat the serial match phase; see ROADMAP.md) — drop the flag"
        ),
        _ => format!(
            "{key}={value} is not served: the {key} key is retired (the server compiles \
             {key}={only} only; the reference engine still runs as `pypmc compile \
             --sweep-policy restart --matcher per-pattern`) — drop the key"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec {
            usage: "test",
            positionals: (0, 1),
            value_flags: &["--config", "--sweep-policy", "--jobs", "--matcher"],
            bool_flags: &["--dot"],
        }
    }

    fn parse(words: &[&str]) -> Result<Parsed, String> {
        let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        parse_args(&spec(), &args)
    }

    #[test]
    fn rejects_unknown_flags_missing_values_and_stray_positionals() {
        assert!(parse(&["--polcy", "restart"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&["--jobs"]).unwrap_err().contains("missing value"));
        assert!(parse(&["a", "b"])
            .unwrap_err()
            .contains("unexpected argument 'b'"));
        let ok = parse(&["m", "--jobs", "4", "--dot"]).unwrap();
        assert_eq!(ok.positionals, vec!["m"]);
        assert_eq!(ok.value("--jobs"), Some("4"));
        assert!(ok.has("--dot"));
    }

    #[test]
    fn lib_config_parses_the_base_vocabulary_and_the_synth_suffix() {
        assert_eq!(lib_config("both"), Some(LibraryConfig::both()));
        assert_eq!(lib_config("baseline"), Some(LibraryConfig::none()));
        assert_eq!(
            lib_config("all+synth39"),
            Some(LibraryConfig::all().with_synth(39))
        );
        assert_eq!(
            lib_config("both+synth0"),
            Some(LibraryConfig::both().with_synth(0))
        );
        // Malformed suffixes and unknown bases are unknown configs,
        // not silent defaults.
        assert_eq!(lib_config("bogus"), None);
        assert_eq!(lib_config("all+synth"), None);
        assert_eq!(lib_config("all+synthX"), None);
        assert_eq!(lib_config("bogus+synth4"), None);
        assert_eq!(lib_config("all+synth99999"), None, "u16 overflow rejected");
        // The cap is a bound, not a clamp; a count is plain digits.
        assert_eq!(
            lib_config("all+synth512"),
            Some(LibraryConfig::all().with_synth(512))
        );
        assert_eq!(lib_config("all+synth513"), None);
        assert_eq!(lib_config("all+synth+5"), None);
    }

    #[test]
    fn policy_resolves_with_the_engine_default_and_the_alias_is_gone() {
        let named = parse(&["--sweep-policy", "restart"]).unwrap();
        assert_eq!(resolve_policy(&named), Ok(SweepPolicy::RestartOnRewrite));
        let neither = parse(&[]).unwrap();
        assert_eq!(resolve_policy(&neither), Ok(SweepPolicy::Incremental));
        // The pre-incremental `--policy` spelling is an unknown flag now.
        assert_eq!(
            parse(&["--policy", "restart"]).unwrap_err(),
            "unknown flag --policy"
        );
        // The retired `continue` policy is rejected with the vocabulary.
        let retired = parse(&["--sweep-policy", "continue"]).unwrap();
        let err = resolve_policy(&retired).unwrap_err();
        assert!(err.contains("restart|incremental"), "{err}");
    }

    #[test]
    fn retired_jobs_accepts_exactly_one() {
        assert_eq!(retired("jobs", "1", "1"), Ok(()));
        for value in ["0", "2", "01", " 1", "x", ""] {
            let err = retired("jobs", value, "1").unwrap_err();
            assert!(err.contains("retired"), "{value:?}: {err}");
            assert!(err.contains("drop the flag"), "{value:?}: {err}");
        }
    }

    #[test]
    fn matcher_resolves_with_a_fused_default() {
        assert_eq!(
            resolve_matcher(&parse(&[]).unwrap()),
            Ok(MatcherBackend::Fused)
        );
        assert_eq!(
            resolve_matcher(&parse(&["--matcher", "per-pattern"]).unwrap()),
            Ok(MatcherBackend::PerPattern)
        );
        let err = resolve_matcher(&parse(&["--matcher", "bogus"]).unwrap()).unwrap_err();
        assert!(err.contains("per-pattern|fused"), "{err}");
    }
}
