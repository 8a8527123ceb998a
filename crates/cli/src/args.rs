//! Minimal `--key value` / `--key=value` / `--flag` argument parsing (no
//! external deps), strict about the option vocabulary: unknown options are
//! rejected with a "did you mean" suggestion instead of being silently
//! absorbed as flags.

use std::collections::BTreeMap;
use std::str::FromStr;

/// Parsed command-line arguments: `--key value` options, `--flag` booleans
/// and positional arguments.
#[derive(Debug, Default, Clone)]
pub struct Args {
    options: BTreeMap<String, String>,
    flags: Vec<String>,
    /// Arguments without a leading `--`.
    pub positional: Vec<String>,
}

/// One subcommand's option vocabulary: which `--name`s take a value and
/// which are boolean flags. Anything else starting with `--` is an error,
/// so a typo — or another subcommand's option (`sweep --rob` instead of
/// `sweep --robs`) — is caught instead of being silently absorbed.
#[derive(Debug, Clone, Copy)]
pub struct Vocabulary<'a> {
    /// Option names that take a value.
    pub value_options: &'a [&'a str],
    /// Boolean flag names.
    pub flags: &'a [&'a str],
    /// How many positional (non-`--`) arguments the command accepts;
    /// extras are an error rather than being silently dropped.
    pub max_positionals: usize,
}

/// Edit distance with unit costs, for "did you mean" suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            row.push(subst.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The closest candidate, if any is close enough to be a plausible typo.
/// Used for option names and for closed option-value sets alike.
pub fn closest<'a>(name: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .into_iter()
        .map(|known| (edit_distance(name, known), known))
        .min()
        .filter(|(d, known)| *d <= 2.max(known.len() / 3))
        .map(|(_, known)| known)
}

/// The closest name in `vocab`, if any is close enough to be a plausible
/// typo.
fn suggestion<'a>(name: &str, vocab: &Vocabulary<'a>) -> Option<&'a str> {
    closest(name, vocab.value_options.iter().chain(vocab.flags).copied())
}

fn number<T: FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("--{name} expects a number, got `{v}`"))
}

impl Args {
    /// Parses raw arguments against one subcommand's vocabulary.
    ///
    /// # Errors
    ///
    /// Returns a message when an option is not in the vocabulary (with a
    /// "did you mean" hint), when a value option is missing its value, or
    /// when a value option is given twice.
    pub fn parse(argv: &[String], vocab: &Vocabulary) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let Some(body) = a.strip_prefix("--") else {
                if args.positional.len() >= vocab.max_positionals {
                    return Err(format!(
                        "unexpected argument `{a}` (this command takes {} positional argument{})",
                        vocab.max_positionals,
                        if vocab.max_positionals == 1 { "" } else { "s" }
                    ));
                }
                args.positional.push(a.clone());
                continue;
            };
            let (name, inline_value) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v)),
                None => (body, None),
            };
            if vocab.value_options.contains(&name) {
                let v = match inline_value {
                    Some(v) => v.to_string(),
                    None => it
                        .next()
                        .ok_or_else(|| format!("option --{name} needs a value"))?
                        .clone(),
                };
                if args.options.insert(name.to_string(), v).is_some() {
                    return Err(format!("option --{name} given more than once"));
                }
            } else if vocab.flags.contains(&name) {
                if inline_value.is_some() {
                    return Err(format!("--{name} is a flag and takes no value"));
                }
                args.flags.push(name.to_string());
            } else {
                let hint = match suggestion(name, vocab) {
                    Some(s) => format!(" (did you mean --{s}?)"),
                    None => String::new(),
                };
                return Err(format!("unknown option --{name}{hint}"));
            }
        }
        Ok(args)
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// The value of `--name` parsed as a number.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not a number of type `T`.
    pub fn get_num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name).map(|v| number(name, v)).transpose()
    }

    /// The value of `--name` split on commas (empty items dropped).
    pub fn get_csv(&self, name: &str) -> Option<Vec<String>> {
        self.get(name).map(|v| {
            v.split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        })
    }

    /// The value of `--name` as a comma-separated list of numbers.
    ///
    /// # Errors
    ///
    /// Returns a message when any item is not a number of type `T`.
    pub fn get_nums<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, String> {
        self.get_csv(name)
            .map(|items| items.iter().map(|v| number(name, v)).collect())
            .transpose()
    }

    /// `true` if `--name` was given as a flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run-like vocabulary plus the sweep CSV axes, for the helpers.
    const VOCAB: Vocabulary = Vocabulary {
        value_options: &["network", "rob", "batch", "networks", "robs", "batches"],
        flags: &["json", "baseline"],
        max_positionals: 1,
    };

    fn parse(parts: &[&str]) -> Args {
        let v: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        Args::parse(&v, &VOCAB).unwrap()
    }

    fn parse_err(parts: &[&str]) -> String {
        let v: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        Args::parse(&v, &VOCAB).unwrap_err()
    }

    #[test]
    fn options_flags_positionals() {
        let a = parse(&["--network", "vgg8", "--json", "file.s", "--rob", "8"]);
        assert_eq!(a.get("network"), Some("vgg8"));
        assert!(a.flag("json"));
        assert!(!a.flag("baseline"));
        assert_eq!(a.positional, vec!["file.s"]);
        assert_eq!(a.get_num::<u32>("rob").unwrap(), Some(8));
        assert_eq!(a.get_num::<u32>("batch").unwrap(), None);
    }

    #[test]
    fn missing_value_is_an_error() {
        let v = vec!["--network".to_string()];
        assert!(Args::parse(&v, &VOCAB).is_err());
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse(&["--rob", "eight"]);
        assert!(a.get_num::<u32>("rob").is_err());
    }

    #[test]
    fn unknown_option_is_rejected_with_suggestion() {
        // Regression: `--netwrok vgg8` used to silently become a flag
        // plus a positional argument.
        let msg = parse_err(&["--netwrok", "vgg8"]);
        assert!(msg.contains("unknown option --netwrok"), "{msg}");
        assert!(msg.contains("did you mean --network"), "{msg}");
        let msg = parse_err(&["--jsno"]);
        assert!(msg.contains("did you mean --json"), "{msg}");
        // Nothing close: no suggestion offered.
        let msg = parse_err(&["--frobnicate"]);
        assert!(msg.contains("unknown option --frobnicate"), "{msg}");
        assert!(!msg.contains("did you mean"), "{msg}");
    }

    #[test]
    fn other_subcommands_options_are_rejected() {
        // `sweep --rob 4` must not parse against a sweep vocabulary that
        // only knows --robs: the near-miss singular form is suggested.
        const SWEEP_ONLY: Vocabulary = Vocabulary {
            value_options: &["networks", "robs"],
            flags: &["json"],
            max_positionals: 0,
        };
        let v: Vec<String> = ["--rob", "4"].iter().map(|s| s.to_string()).collect();
        let msg = Args::parse(&v, &SWEEP_ONLY).unwrap_err();
        assert!(msg.contains("unknown option --rob"), "{msg}");
        assert!(msg.contains("did you mean --robs"), "{msg}");
    }

    #[test]
    fn stray_positionals_are_rejected() {
        // `sweep --networks vgg8 results.json` (forgotten --out) must not
        // silently drop the filename.
        const NO_POSITIONALS: Vocabulary = Vocabulary {
            value_options: &["networks"],
            flags: &[],
            max_positionals: 0,
        };
        let v: Vec<String> = ["--networks", "vgg8", "results.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let msg = Args::parse(&v, &NO_POSITIONALS).unwrap_err();
        assert!(msg.contains("unexpected argument `results.json`"), "{msg}");
        // Within the allowed count, positionals still work.
        let a = parse(&["file.s", "--rob", "2"]);
        assert_eq!(a.positional, vec!["file.s"]);
        let msg = parse_err(&["file.s", "extra.s"]);
        assert!(msg.contains("unexpected argument `extra.s`"), "{msg}");
    }

    #[test]
    fn key_equals_value_form() {
        let a = parse(&["--network=vgg8", "--rob=16"]);
        assert_eq!(a.get("network"), Some("vgg8"));
        assert_eq!(a.get_num::<u32>("rob").unwrap(), Some(16));
        assert!(parse_err(&["--json=yes"]).contains("takes no value"));
    }

    #[test]
    fn duplicate_value_option_is_an_error() {
        let msg = parse_err(&["--network", "vgg8", "--network", "lenet"]);
        assert!(msg.contains("more than once"), "{msg}");
    }

    #[test]
    fn csv_helpers() {
        let a = parse(&["--networks", "vgg8,lenet", "--robs", "1,4,8"]);
        assert_eq!(
            a.get_csv("networks").unwrap(),
            vec!["vgg8".to_string(), "lenet".to_string()]
        );
        assert_eq!(a.get_nums::<u32>("robs").unwrap().unwrap(), vec![1, 4, 8]);
        assert_eq!(a.get_nums::<u32>("batches").unwrap(), None);
        let a = parse(&["--robs", "1,x"]);
        let err = a.get_nums::<u32>("robs").unwrap_err();
        assert_eq!(err, "--robs expects a number, got `x`");
    }

    #[test]
    fn numeric_helpers() {
        let a = parse(&["--rob", "1e5", "--batch", "9007199254740993"]);
        assert_eq!(a.get_num::<f64>("rob").unwrap(), Some(1e5));
        assert_eq!(a.get_num::<u64>("batch").unwrap(), Some(9007199254740993));
        assert!(a.get_num::<u32>("batch").is_err());
        assert_eq!(a.get_num::<f64>("network").unwrap(), None);
        assert_eq!(a.get_num::<u64>("network").unwrap(), None);
        let a = parse(&["--rob", "fast", "--robs", "1.5,x"]);
        assert!(a.get_num::<f64>("rob").is_err());
        assert!(a.get_num::<u64>("rob").is_err());
        assert!(a.get_nums::<f64>("robs").is_err());
        let a = parse(&["--robs", "0.5,2e4"]);
        assert_eq!(a.get_nums::<f64>("robs").unwrap().unwrap(), vec![0.5, 2e4]);
    }
}
