//! The one command-line flag grammar shared by every binary.
//!
//! A command line is a list of tokens.  A value flag (`--out DIR`) is the
//! flag token followed by its value, a switch (`--wait`) is a lone token,
//! and every other token is positional.  Each accessor of [`Args`] removes
//! the tokens it reads, so once a binary has read everything it knows,
//! [`Args::finish`] rejects whatever is left over.  Flags may appear
//! anywhere on the line; a single-valued flag takes its first occurrence,
//! and a repeat is left over.  Binaries that ignore flags they do not know
//! (the figure binaries) simply never call `finish`.
//!
//! Errors are plain messages with one wording per kind:
//! `--x requires a value`, `--x must be a number, got "abc"` and
//! `unexpected argument "abc"`.
//!
//! ```
//! use lad_common::cli::Args;
//!
//! let mut args = Args::new(["replay", "t.ladt", "--scheme", "RT-3", "--wait"]);
//! assert_eq!(args.positional().as_deref(), Some("replay"));
//! assert_eq!(args.value("--scheme").unwrap().as_deref(), Some("RT-3"));
//! assert!(args.switch("--wait"));
//! assert_eq!(args.number::<u64>("--seed").unwrap(), None);
//! assert_eq!(args.positional().as_deref(), Some("t.ladt"));
//! assert!(args.finish().is_ok());
//! ```

use std::str::FromStr;

/// The not-yet-consumed tokens of a command line.
#[derive(Debug, Clone)]
pub struct Args {
    tokens: Vec<String>,
    usage: Option<&'static str>,
}

impl Args {
    /// The process's arguments, without the program name.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    /// Arguments from an explicit token list.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(tokens: I) -> Args {
        Args {
            tokens: tokens.into_iter().map(Into::into).collect(),
            usage: None,
        }
    }

    /// Appends `usage` (after a blank line) to the error of
    /// [`Args::finish`].
    pub fn with_usage(mut self, usage: &'static str) -> Args {
        self.usage = Some(usage);
        self
    }

    /// Removes the first `name value` pair and returns the value; `None`
    /// when the flag is absent.
    ///
    /// # Errors
    ///
    /// `name requires a value` when the flag is the last token.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(index) = self.tokens.iter().position(|token| token == name) else {
            return Ok(None);
        };
        if index + 1 == self.tokens.len() {
            return Err(format!("{name} requires a value"));
        }
        let value = self.tokens.remove(index + 1);
        self.tokens.remove(index);
        Ok(Some(value))
    }

    /// Removes every `name value` pair and returns the values in order.
    ///
    /// # Errors
    ///
    /// As for [`Args::value`].
    pub fn values(&mut self, name: &str) -> Result<Vec<String>, String> {
        let mut values = Vec::new();
        while let Some(value) = self.value(name)? {
            values.push(value);
        }
        Ok(values)
    }

    /// Like [`Args::value`], parsed as a number.
    ///
    /// # Errors
    ///
    /// As for [`Args::value`], plus `name must be a number, got "…"`.
    pub fn number<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|value| {
                value
                    .parse()
                    .map_err(|_| format!("{name} must be a number, got {value:?}"))
            })
            .transpose()
    }

    /// Removes the first bare `name` token, reporting whether it was there.
    pub fn switch(&mut self, name: &str) -> bool {
        match self.tokens.iter().position(|token| token == name) {
            Some(index) => {
                self.tokens.remove(index);
                true
            }
            None => false,
        }
    }

    /// Removes and returns the first remaining token.
    pub fn positional(&mut self) -> Option<String> {
        (!self.tokens.is_empty()).then(|| self.tokens.remove(0))
    }

    /// Ends parsing.
    ///
    /// # Errors
    ///
    /// `unexpected argument "…"` naming the first token nobody read,
    /// followed by the usage text when one was given.
    pub fn finish(self) -> Result<(), String> {
        let Some(extra) = self.tokens.first() else {
            return Ok(());
        };
        let mut message = format!("unexpected argument {extra:?}");
        if let Some(usage) = self.usage {
            message.push_str("\n\n");
            message.push_str(usage);
        }
        Err(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_anywhere_first_occurrence_wins_and_leftovers_fail() {
        let mut args = Args::new(["a", "--n", "7", "--s", "x", "b", "--s", "y", "--on"]);
        assert_eq!(args.number::<u32>("--n").unwrap(), Some(7));
        assert_eq!(args.values("--s").unwrap(), ["x", "y"]);
        assert!(args.switch("--on"));
        assert!(!args.switch("--on"));
        assert_eq!(args.value("--missing").unwrap(), None);
        assert_eq!(args.positional().as_deref(), Some("a"));
        assert_eq!(
            args.clone().finish().unwrap_err(),
            "unexpected argument \"b\""
        );
        assert_eq!(
            args.clone().with_usage("USAGE: x").finish().unwrap_err(),
            "unexpected argument \"b\"\n\nUSAGE: x"
        );
        assert_eq!(args.positional().as_deref(), Some("b"));
        assert_eq!(args.positional(), None);
        assert!(args.finish().is_ok());

        // A repeated single-valued flag leaves the repeat over.
        let mut args = Args::new(["--n", "1", "--n", "2"]);
        assert_eq!(args.number::<u8>("--n").unwrap(), Some(1));
        assert_eq!(args.finish().unwrap_err(), "unexpected argument \"--n\"");
    }

    #[test]
    fn errors_use_one_wording_each() {
        assert_eq!(
            Args::new(["--json"]).value("--json").unwrap_err(),
            "--json requires a value"
        );
        assert_eq!(
            Args::new(["--scheme", "RT-3", "--scheme"])
                .values("--scheme")
                .unwrap_err(),
            "--scheme requires a value"
        );
        assert_eq!(
            Args::new(["--workers", "x"])
                .number::<usize>("--workers")
                .unwrap_err(),
            "--workers must be a number, got \"x\""
        );
        // The value token is taken verbatim, even when it looks like a flag.
        assert_eq!(
            Args::new(["--out", "--quick"]).value("--out").unwrap(),
            Some("--quick".to_string())
        );
    }
}
