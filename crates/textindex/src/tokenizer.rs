//! Tokenization of attribute-instance text.
//!
//! Tokens are maximal runs of ASCII alphanumeric characters, lowercased.
//! This keeps alphanumeric identifiers such as `Sport100` or `fernando35`
//! intact while splitting product codes like `Mountain-200` into
//! `mountain`, `200` — matching how Lucene's StandardAnalyzer behaves on
//! the AdventureWorks vocabulary used in the paper's experiments.

/// One token with its position (token offset, used for phrase queries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lowercased token text.
    pub text: String,
    /// Token offset within the document (for phrase adjacency).
    pub position: u32,
}

/// The one definition of a token: the maximal ASCII-alphanumeric runs of
/// `text`, borrowed and not yet lowercased. The `n`-th item has position
/// `n`; every other character, non-ASCII letters included, separates.
pub(crate) fn raw_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// Splits `text` into lowercase alphanumeric tokens with positions.
pub fn tokenize(text: &str) -> Vec<Token> {
    raw_tokens(text)
        .zip(0..)
        .map(|(t, position)| Token {
            text: t.to_ascii_lowercase(),
            position,
        })
        .collect()
}

/// Convenience: tokenized strings without positions.
pub fn tokenize_terms(text: &str) -> Vec<String> {
    raw_tokens(text).map(str::to_ascii_lowercase).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        let toks = tokenize_terms("Flat Panel(LCD)");
        assert_eq!(toks, vec!["flat", "panel", "lcd"]);
    }

    #[test]
    fn keeps_alphanumeric_identifiers() {
        assert_eq!(tokenize_terms("Sport100"), vec!["sport100"]);
        assert_eq!(
            tokenize_terms("fernando35@adventure-works.com"),
            vec!["fernando35", "adventure", "works", "com"]
        );
    }

    #[test]
    fn splits_hyphenated_model_names() {
        assert_eq!(tokenize_terms("Mountain-200"), vec!["mountain", "200"]);
    }

    #[test]
    fn positions_are_sequential() {
        let toks = tokenize("San Jose Metal Plate");
        let positions: Vec<u32> = toks.iter().map(|t| t.position).collect();
        assert_eq!(positions, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_and_symbol_only_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ###").is_empty());
    }

    #[test]
    fn non_ascii_letters_separate() {
        assert_eq!(tokenize_terms("Café Zürich"), vec!["caf", "z", "rich"]);
        let toks = tokenize("東京 Tower");
        assert_eq!(
            toks,
            vec![Token {
                text: "tower".into(),
                position: 0
            }]
        );
    }

    #[test]
    fn lowercases_everything() {
        assert_eq!(
            tokenize_terms("CALIFORNIA Street"),
            vec!["california", "street"]
        );
    }
}
