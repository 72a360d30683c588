//! Text tokenization.
//!
//! The original used PostgreSQL's Tsearch2; this reproduction uses a
//! simple, deterministic tokenizer: Unicode-alphanumeric runs, lowercased
//! (ASCII fold), with a small English stopword list applied at indexing
//! time so pervasive words don't bloat the postings.

/// Words too common to index.
const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has", "he", "in", "is", "it",
    "its", "of", "on", "or", "that", "the", "to", "was", "were", "will", "with",
];

/// Calls `visit` with each token of `text` in order, lowercased,
/// stopwords included: the one tokenizer every text path runs.
///
/// A token is a run of alphanumeric chars, each lowercased as
/// `char::to_lowercase` does. A token of lowercase ASCII is handed out
/// as a slice of `text`; any other is folded into `buf`, which the
/// caller keeps across calls so that folding allocates only while the
/// buffer grows. For ASCII, `is_ascii_alphanumeric` and ASCII
/// lowercasing are exactly `char::is_alphanumeric` and
/// `char::to_lowercase`, so the byte loop below needs a char only for
/// non-ASCII input.
///
/// # Examples
///
/// ```
/// use dv_index::tokenizer::for_each_token;
///
/// let mut seen = Vec::new();
/// for_each_token("Hello, wörld 42", &mut String::new(), |t| seen.push(t.to_string()));
/// assert_eq!(seen, ["hello", "wörld", "42"]);
/// ```
pub fn for_each_token(text: &str, buf: &mut String, mut visit: impl FnMut(&str)) {
    let bytes = text.as_bytes();
    // The open token's first byte, and whether it must be folded.
    let mut start = None;
    let mut fold = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let (alnum, plain, len) = if b.is_ascii() {
            (b.is_ascii_alphanumeric(), !b.is_ascii_uppercase(), 1)
        } else {
            let ch = text[i..].chars().next().expect("i is a char boundary");
            (ch.is_alphanumeric(), false, ch.len_utf8())
        };
        if alnum {
            fold |= !plain;
            start.get_or_insert(i);
        } else if let Some(s) = start.take() {
            emit(&text[s..i], std::mem::take(&mut fold), buf, &mut visit);
        }
        i += len;
    }
    if let Some(s) = start {
        emit(&text[s..], fold, buf, &mut visit);
    }
}

/// Hands one token to `visit`: as it stands, or lowercased into `buf`.
fn emit(token: &str, fold: bool, buf: &mut String, visit: &mut impl FnMut(&str)) {
    if fold {
        buf.clear();
        for ch in token.chars() {
            buf.extend(ch.to_lowercase());
        }
        visit(buf);
    } else {
        visit(token);
    }
}

/// Splits text into lowercase alphanumeric tokens, keeping stopwords.
///
/// # Examples
///
/// ```
/// use dv_index::tokenizer::tokenize;
///
/// assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, &mut String::new(), |t| out.push(t.to_owned()));
    out
}

/// Tokenizes and removes stopwords — the indexing-side tokenizer.
pub fn index_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, &mut String::new(), |t| {
        if !is_stopword(t) {
            out.push(t.to_owned());
        }
    });
    out
}

/// Returns whether a (lowercased) token is a stopword.
pub fn is_stopword(token: &str) -> bool {
    STOPWORDS.binary_search(&token).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_non_alphanumerics() {
        assert_eq!(
            tokenize("foo-bar_baz.qux 42!x"),
            vec!["foo", "bar", "baz", "qux", "42", "x"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("MiXeD CaSe"), vec!["mixed", "case"]);
    }

    #[test]
    fn empty_and_symbol_only_produce_nothing() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! ---").is_empty());
    }

    #[test]
    fn stopwords_are_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS);
    }

    #[test]
    fn index_tokens_drop_stopwords() {
        assert_eq!(
            index_tokens("the quick brown fox is at the door"),
            vec!["quick", "brown", "fox", "door"]
        );
    }

    #[test]
    fn unicode_tokens_survive() {
        assert_eq!(tokenize("naïve café"), vec!["naïve", "café"]);
    }

    #[test]
    fn folds_as_char_to_lowercase_does() {
        // `İ` folds to two chars, `ẞ` to another letter, and a final
        // `Σ` to `σ`: char by char, not as `str::to_lowercase`.
        assert_eq!(
            tokenize("İstanbul STRAẞE ΣΟΦΙΑΣ x² ½"),
            ["i\u{307}stanbul", "straße", "σοφιασ", "x²", "½"]
        );
        // A lowercase ASCII token is the text's own slice.
        let text = "one Two three";
        let mut borrowed = Vec::new();
        for_each_token(text, &mut String::new(), |t| {
            borrowed.push(text.as_bytes().as_ptr_range().contains(&t.as_ptr()));
        });
        assert_eq!(borrowed, [true, false, true]);
    }
}
