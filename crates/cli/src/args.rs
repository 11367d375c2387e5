//! Dependency-free `--key value` argument parsing.

use crate::CliError;

/// Parsed positional arguments and flags.
#[derive(Debug, Default)]
pub(crate) struct Args {
    pub positional: Vec<String>,
    flags: Vec<(String, String)>,
    /// Flags present without a value (e.g. `--model`).
    switches: Vec<String>,
}

impl Args {
    /// Parses `argv`: positionals anywhere, `--key value` pairs, and
    /// bare `--switch`es (a `--key` followed by another `--...` or end).
    pub(crate) fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if key.is_empty() {
                    return Err(CliError::new("empty flag `--`"));
                }
                match argv.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        args.flags.push((key.to_string(), v.clone()));
                        i += 2;
                    }
                    _ => {
                        args.switches.push(key.to_string());
                        i += 1;
                    }
                }
            } else {
                args.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(args)
    }

    /// Positional argument `idx` or an error naming it.
    pub(crate) fn positional(&self, idx: usize, name: &str) -> Result<&str, CliError> {
        self.positional
            .get(idx)
            .map(String::as_str)
            .ok_or_else(|| CliError::new(format!("missing <{name}> argument")))
    }

    /// String flag value.
    #[must_use]
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable flag, in order (e.g.
    /// `--replica a --replica b`).
    #[must_use]
    pub(crate) fn get_all(&self, key: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Boolean switch presence.
    #[must_use]
    pub(crate) fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|k| k == key)
    }

    /// Parsed numeric flag with default.
    pub(crate) fn get_f64(&self, key: &str, default: f64) -> Result<f64, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::new(format!("--{key}: `{v}` is not a number"))),
        }
    }

    /// Parsed integer flag with default.
    pub(crate) fn get_usize(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::new(format!("--{key}: `{v}` is not an integer"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        let v: Vec<String> = words.iter().map(|s| (*s).to_string()).collect();
        Args::parse(&v).unwrap()
    }

    #[test]
    fn positionals_and_flags_mix() {
        let a = parse(&["in.f64", "--eb", "1e-9", "out.bin", "--model"]);
        assert_eq!(a.positional, vec!["in.f64", "out.bin"]);
        assert_eq!(a.get("eb"), Some("1e-9"));
        assert!(a.switch("model"));
        assert!(!a.switch("eb"));
    }

    #[test]
    fn last_flag_wins() {
        let a = parse(&["--eb", "1", "--eb", "2"]);
        assert_eq!(a.get("eb"), Some("2"));
    }

    #[test]
    fn numeric_parsing() {
        let a = parse(&["--eb", "1e-10", "--blocks", "42"]);
        assert_eq!(a.get_f64("eb", 0.0).unwrap(), 1e-10);
        assert_eq!(a.get_usize("blocks", 0).unwrap(), 42);
        assert_eq!(a.get_f64("missing", 7.5).unwrap(), 7.5);
        let bad = parse(&["--eb", "--x"]); // eb becomes a switch
        assert_eq!(bad.get_f64("eb", 3.0).unwrap(), 3.0);
    }

    #[test]
    fn bad_number_is_error() {
        let a = parse(&["--eb", "abc"]);
        assert!(a.get_f64("eb", 0.0).is_err());
    }

    #[test]
    fn missing_positional_reports_name() {
        let a = parse(&["only-one"]);
        let err = a.positional(1, "output").unwrap_err();
        assert!(err.message.contains("output"));
    }
}
