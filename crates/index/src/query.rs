//! The query language.
//!
//! §4.4's query classes as an AST plus a small text syntax:
//!
//! * boolean keyword search — `paper draft`, `sosp OR osdi`, `-spam`;
//! * tying keywords to applications — `app:firefox checkpoint`;
//! * constraining the enclosing window — `window:inbox report`;
//! * "only ... applications that had the window focus" — `focused:`;
//! * annotations — `annotation:`;
//! * time ranges — `from:120 to:300` (seconds into the session).
//!
//! Terms within a group AND together; `OR` separates groups. A quoted
//! `"word sequence"` matches only text containing those words adjacently.
//! An unquoted atom that tokenizes to several words (`e-mail`,
//! `annotation:follow-up`) means the same as its quoted form, and an atom
//! of stopwords alone is refused, quoted or not.

use dv_time::{Duration, Timestamp};

/// A parsed query.
#[derive(Clone, PartialEq, Debug)]
pub enum Query {
    /// Matches whenever any indexed text (passing the surrounding
    /// context filters) is visible.
    Any,
    /// Matches while text containing the term is visible.
    Term(String),
    /// Matches while text containing the exact word sequence is visible
    /// (`"quoted phrase"` in the string syntax).
    Phrase(Vec<String>),
    /// Both sides satisfied simultaneously.
    And(Box<Query>, Box<Query>),
    /// Either side satisfied.
    Or(Box<Query>, Box<Query>),
    /// Inner query not satisfied.
    Not(Box<Query>),
    /// Restrict matching text to an application by name.
    App(String, Box<Query>),
    /// Restrict matching text to windows whose title contains the term.
    Window(String, Box<Query>),
    /// Restrict matching text to moments its application held focus.
    Focused(Box<Query>),
    /// Restrict matching to explicit annotations.
    Annotated(Box<Query>),
    /// Restrict satisfaction to a time range.
    During {
        /// Range start (inclusive).
        from: Timestamp,
        /// Range end (exclusive).
        to: Timestamp,
        /// Inner query.
        q: Box<Query>,
    },
}

/// A query-string parse error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// One OR-group's atoms: each positive or negated atom is its indexed
/// words, one word a term and several a phrase.
struct GroupSpec {
    atoms: Vec<Vec<String>>,
    negated: Vec<Vec<String>>,
    app: Option<String>,
    window: Option<String>,
    focused: bool,
    annotated: bool,
    from: Option<Timestamp>,
    to: Option<Timestamp>,
}

impl GroupSpec {
    fn new() -> Self {
        GroupSpec {
            atoms: Vec::new(),
            negated: Vec::new(),
            app: None,
            window: None,
            focused: false,
            annotated: false,
            from: None,
            to: None,
        }
    }

    fn wrap(&self, q: Query) -> Query {
        let mut q = q;
        if let Some(app) = &self.app {
            q = Query::App(app.clone(), Box::new(q));
        }
        if let Some(window) = &self.window {
            q = Query::Window(window.clone(), Box::new(q));
        }
        if self.focused {
            q = Query::Focused(Box::new(q));
        }
        if self.annotated {
            q = Query::Annotated(Box::new(q));
        }
        q
    }

    fn build(&self) -> Result<Query, ParseError> {
        let mut conj: Option<Query> = None;
        let push = |q: Query, conj: &mut Option<Query>| {
            *conj = Some(match conj.take() {
                Some(prev) => Query::And(Box::new(prev), Box::new(q)),
                None => q,
            });
        };
        for words in &self.atoms {
            push(self.wrap(leaf(words)), &mut conj);
        }
        for words in &self.negated {
            push(Query::Not(Box::new(self.wrap(leaf(words)))), &mut conj);
        }
        let mut q = conj.unwrap_or_else(|| self.wrap(Query::Any));
        if self.from.is_some() || self.to.is_some() {
            q = Query::During {
                from: self.from.unwrap_or(Timestamp::ZERO),
                to: self.to.unwrap_or(Timestamp::MAX),
                q: Box::new(q),
            };
        }
        Ok(q)
    }
}

/// The indexed words of an atom's text, or an error naming `raw` when
/// it has none (only punctuation or stopwords).
fn atom_words(text: &str, raw: &str) -> Result<Vec<String>, ParseError> {
    let words = crate::tokenizer::index_tokens(text);
    if words.is_empty() {
        return Err(ParseError(format!("no indexable word in {raw:?}")));
    }
    Ok(words)
}

/// The leaf matching an atom's words.
fn leaf(words: &[String]) -> Query {
    match words {
        [word] => Query::Term(word.clone()),
        _ => Query::Phrase(words.to_vec()),
    }
}

fn parse_seconds(value: &str) -> Result<Timestamp, ParseError> {
    let secs: f64 = value
        .parse()
        .map_err(|_| ParseError(format!("invalid time value {value:?}")))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(ParseError(format!("invalid time value {value:?}")));
    }
    Ok(Timestamp::ZERO + Duration::from_secs_f64(secs))
}

/// Splits one OR-group into atoms, keeping `"quoted phrases"` intact.
fn lex_atoms(text: &str) -> Result<Vec<String>, ParseError> {
    let mut atoms = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        let mut atom = String::new();
        if c == '"' {
            atom.push(chars.next().expect("peeked quote"));
            let mut closed = false;
            for c in chars.by_ref() {
                atom.push(c);
                if c == '"' {
                    closed = true;
                    break;
                }
            }
            if !closed {
                return Err(ParseError("unterminated quote".into()));
            }
        } else {
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() {
                    break;
                }
                atom.push(chars.next().expect("peeked char"));
            }
        }
        atoms.push(atom);
    }
    Ok(atoms)
}

/// Parses the query syntax described in the module docs.
///
/// # Errors
///
/// Returns a [`ParseError`] on empty queries, unknown `key:` prefixes or
/// malformed time values.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let mut groups: Vec<Query> = Vec::new();
    for group_text in input.split(" OR ") {
        let mut spec = GroupSpec::new();
        let mut saw_atom = false;
        for raw in lex_atoms(group_text)? {
            let raw = raw.as_str();
            saw_atom = true;
            // Quoted atoms are phrases.
            if let Some(inner) = raw.strip_prefix('"') {
                let inner = inner.strip_suffix('"').unwrap_or(inner);
                spec.atoms.push(atom_words(inner, raw)?);
                continue;
            }
            let (negated, atom) = match raw.strip_prefix('-') {
                Some(rest) => (true, rest),
                None => (false, raw),
            };
            if let Some((key, value)) = atom.split_once(':') {
                if negated {
                    return Err(ParseError(format!("cannot negate modifier {raw:?}")));
                }
                match key {
                    "app" => spec.app = Some(value.to_lowercase()),
                    "window" => spec.window = Some(value.to_lowercase()),
                    "focused" => spec.focused = true,
                    "annotation" => {
                        spec.annotated = true;
                        if !value.is_empty() {
                            spec.atoms.push(atom_words(value, raw)?);
                        }
                    }
                    "from" => spec.from = Some(parse_seconds(value)?),
                    "to" => spec.to = Some(parse_seconds(value)?),
                    other => {
                        return Err(ParseError(format!("unknown modifier {other:?}")));
                    }
                }
            } else {
                let words = atom_words(atom, raw)?;
                if negated {
                    spec.negated.push(words);
                } else {
                    spec.atoms.push(words);
                }
            }
        }
        if !saw_atom {
            continue;
        }
        groups.push(spec.build()?);
    }
    groups
        .into_iter()
        .reduce(|a, b| Query::Or(Box::new(a), Box::new(b)))
        .ok_or_else(|| ParseError("empty query".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_term() {
        assert_eq!(parse_query("Milk!").unwrap(), Query::Term("milk".into()));
    }

    #[test]
    fn terms_and_together() {
        let q = parse_query("alpha beta").unwrap();
        assert_eq!(
            q,
            Query::And(
                Box::new(Query::Term("alpha".into())),
                Box::new(Query::Term("beta".into()))
            )
        );
    }

    #[test]
    fn or_separates_groups() {
        let q = parse_query("alpha OR beta").unwrap();
        assert!(matches!(q, Query::Or(_, _)));
    }

    #[test]
    fn negation() {
        let q = parse_query("alpha -beta").unwrap();
        assert_eq!(
            q,
            Query::And(
                Box::new(Query::Term("alpha".into())),
                Box::new(Query::Not(Box::new(Query::Term("beta".into()))))
            )
        );
    }

    #[test]
    fn app_modifier_wraps_terms() {
        let q = parse_query("app:Firefox checkpoint").unwrap();
        assert_eq!(
            q,
            Query::App("firefox".into(), Box::new(Query::Term("checkpoint".into())))
        );
    }

    #[test]
    fn bare_app_filter_matches_any() {
        let q = parse_query("app:firefox").unwrap();
        assert_eq!(q, Query::App("firefox".into(), Box::new(Query::Any)));
    }

    #[test]
    fn focused_and_annotation() {
        let q = parse_query("focused: report").unwrap();
        assert_eq!(q, Query::Focused(Box::new(Query::Term("report".into()))));
        let q = parse_query("annotation:todo").unwrap();
        assert_eq!(q, Query::Annotated(Box::new(Query::Term("todo".into()))));
    }

    #[test]
    fn time_range() {
        let q = parse_query("from:10 to:20.5 milk").unwrap();
        match q {
            Query::During { from, to, q } => {
                assert_eq!(from, Timestamp::from_secs(10));
                assert_eq!(to.as_millis(), 20_500);
                assert_eq!(*q, Query::Term("milk".into()));
            }
            other => panic!("expected During, got {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse_query("").is_err());
        assert!(parse_query("bogus:thing").is_err());
        assert!(parse_query("-app:firefox").is_err());
        assert!(parse_query("from:abc x").is_err());
        assert!(parse_query("!!!").is_err());
        assert!(parse_query("\"unterminated phrase").is_err());
        assert!(parse_query("\"the of\"").is_err(), "all-stopword phrase");
    }

    #[test]
    fn quoted_phrases_parse() {
        let q = parse_query("\"virtual computer recorder\"").unwrap();
        assert_eq!(
            q,
            Query::Phrase(vec!["virtual".into(), "computer".into(), "recorder".into()])
        );
        // Single-word quotes collapse to terms.
        assert_eq!(parse_query("\"milk\"").unwrap(), Query::Term("milk".into()));
        // Phrases combine with terms and modifiers.
        let q = parse_query("app:acroread \"take me back\" revive").unwrap();
        assert!(matches!(q, Query::And(_, _)));
    }

    #[test]
    fn multi_word_atoms_mean_their_quoted_phrase() {
        let phrase = |words: &[&str]| Query::Phrase(words.iter().map(|w| w.to_string()).collect());
        for (plain, quoted) in [
            ("e-mail", "\"e mail\""),
            ("foo-bar", "\"foo bar\""),
            ("state-of-the-art", "\"state of the art\""),
            ("annotation:follow-up", "annotation: \"follow up\""),
        ] {
            assert_eq!(parse_query(plain), parse_query(quoted), "{plain}");
        }
        assert_eq!(parse_query("e-mail").unwrap(), phrase(&["e", "mail"]));
        assert_eq!(
            parse_query("-foo-bar baz").unwrap(),
            Query::And(
                Box::new(Query::Term("baz".into())),
                Box::new(Query::Not(Box::new(phrase(&["foo", "bar"]))))
            )
        );
        assert_eq!(
            parse_query("annotation:follow-up").unwrap(),
            Query::Annotated(Box::new(phrase(&["follow", "up"])))
        );
        // A stopword inside an atom is dropped, as indexing drops it.
        assert_eq!(parse_query("the-milk").unwrap(), Query::Term("milk".into()));
    }

    #[test]
    fn stopword_atoms_are_refused_like_their_quoted_form() {
        for q in [
            "the",
            "-the",
            "of-the",
            "annotation:the",
            "milk the",
            "annotation:...",
        ] {
            assert!(parse_query(q).is_err(), "{q:?} accepted");
        }
        assert!(parse_query("\"the\"").is_err());
        assert_eq!(
            parse_query("annotation:").unwrap(),
            Query::Annotated(Box::new(Query::Any))
        );
    }

    #[test]
    fn contextual_combination_from_paper() {
        // "a particular set of words limited to just those times when
        // they were displayed inside a Firefox window ... adding the
        // constraint that a different set of words be visible somewhere
        // else on the desktop" — expressible as two OR/AND groups:
        let q = parse_query("app:firefox virtual machines deadline").unwrap();
        assert!(matches!(q, Query::And(_, _)));
    }
}
