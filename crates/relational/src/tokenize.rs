//! Text normalisation and tokenisation.
//!
//! The embedding pipelines (word2vec-style cell embeddings, DeepER tuple
//! composition, the discovery matchers) all consume tokens produced
//! here, so normalisation decisions are made once.

use crate::table::Table;

/// Lowercase, map punctuation to spaces, and collapse whitespace.
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for c in s.chars() {
        let c = if c.is_alphanumeric() {
            c.to_ascii_lowercase()
        } else {
            ' '
        };
        if c == ' ' {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Split into normalised word tokens.
pub fn tokenize(s: &str) -> Vec<String> {
    normalize(s)
        .split(' ')
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect()
}

/// Tokenise one tuple: the "naive adaptation treats each tuple as a
/// document where the values of each attribute correspond to words"
/// (§3.1). Attribute order is preserved; nulls contribute nothing.
pub fn tokenize_tuple(row: &[crate::value::Value]) -> Vec<String> {
    let mut out = Vec::new();
    for v in row {
        if v.is_null() {
            continue;
        }
        out.extend(tokenize(&v.canonical()));
    }
    out
}

/// Tokenise every tuple of a table into "documents".
pub fn table_documents(table: &Table) -> Vec<Vec<String>> {
    table.rows.iter().map(|r| tokenize_tuple(r)).collect()
}

/// Character n-grams of a normalised string (used by syntactic matchers
/// and blocking baselines).
pub fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    let norm = normalize(s);
    let chars: Vec<char> = norm.chars().collect();
    if chars.len() < n {
        if chars.is_empty() {
            return Vec::new();
        }
        return vec![norm];
    }
    (0..=chars.len() - n)
        .map(|i| chars[i..i + n].iter().collect())
        .collect()
}

/// Jaccard similarity of two token multisets (computed on sets).
pub fn jaccard(a: &[String], b: &[String]) -> f64 {
    use std::collections::HashSet;
    let sa: HashSet<&String> = a.iter().collect();
    let sb: HashSet<&String> = b.iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union as f64
}

/// Reusable buffers for the Levenshtein kernel: the DP row, plus two
/// char buffers for the `&str` entry point. A caller scoring many pairs
/// keeps one of these and pays no allocation per pair once the buffers
/// have grown to the longest string seen.
#[derive(Clone, Debug, Default)]
pub struct EditScratch {
    a: Vec<char>,
    b: Vec<char>,
    row: Vec<usize>,
}

impl EditScratch {
    /// Normalised edit similarity in `[0, 1]` of two char slices:
    /// `1 − distance / max(len)`, and 1 for two empty slices.
    pub fn similarity(&mut self, a: &[char], b: &[char]) -> f64 {
        similarity(a, b, &mut self.row)
    }

    /// [`EditScratch::similarity`] of two strings, decoding each once
    /// into the scratch's own char buffers.
    pub fn similarity_str(&mut self, a: &str, b: &str) -> f64 {
        self.a.clear();
        self.a.extend(a.chars());
        self.b.clear();
        self.b.extend(b.chars());
        similarity(&self.a, &self.b, &mut self.row)
    }
}

fn similarity(a: &[char], b: &[char], row: &mut Vec<usize>) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b, row) as f64 / max as f64
}

/// Single-row Levenshtein over char slices. `row` is resized as needed
/// and holds nothing meaningful between calls.
fn levenshtein(a: &[char], b: &[char], row: &mut Vec<usize>) -> usize {
    if a.is_empty() {
        return b.len();
    }
    row.clear();
    row.extend(0..=b.len());
    for (i, ca) in a.iter().enumerate() {
        // `diag` and `left` carry D[i][j] and D[i+1][j] along the row, so
        // the loop reads and writes each cell once.
        let mut diag = i;
        let mut left = i + 1;
        row[0] = left;
        for (cb, cell) in b.iter().zip(&mut row[1..]) {
            let up = *cell;
            left = (diag + usize::from(ca != cb)).min(up + 1).min(left + 1);
            diag = up;
            *cell = left;
        }
    }
    row[b.len()]
}

/// Levenshtein edit distance between two strings (on chars).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein(&a, &b, &mut Vec::new())
}

/// Normalised edit similarity in `[0, 1]`.
pub fn edit_similarity(a: &str, b: &str) -> f64 {
    EditScratch::default().similarity_str(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::employee_example;
    use crate::value::Value;

    #[test]
    fn normalize_strips_punct_and_case() {
        assert_eq!(normalize("John  DOE, Jr."), "john doe jr");
        assert_eq!(normalize("  "), "");
        assert_eq!(normalize("a-b_c"), "a b c");
    }

    #[test]
    fn tokenize_tuple_skips_nulls() {
        let row = vec![Value::text("John Doe"), Value::Null, Value::Int(42)];
        assert_eq!(tokenize_tuple(&row), vec!["john", "doe", "42"]);
    }

    #[test]
    fn table_documents_one_per_row() {
        let docs = table_documents(&employee_example());
        assert_eq!(docs.len(), 4);
        assert!(docs[0].contains(&"john".to_string()));
        assert!(docs[0].contains(&"resources".to_string()));
    }

    #[test]
    fn ngrams_basic_and_short() {
        assert_eq!(char_ngrams("abc", 2), vec!["ab", "bc"]);
        assert_eq!(char_ngrams("a", 3), vec!["a"]);
        assert!(char_ngrams("", 2).is_empty());
    }

    #[test]
    fn jaccard_bounds() {
        let a = vec!["a".to_string(), "b".to_string()];
        let b = vec!["b".to_string(), "c".to_string()];
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&a, &[]), 0.0);
    }

    #[test]
    fn edit_distance_known() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
    }

    /// The seed's two-row, four-allocation Levenshtein, kept as the
    /// oracle for the single-row kernel.
    fn edit_distance_seed(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0; b.len() + 1];
        for (i, ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, cb) in b.iter().enumerate() {
                let cost = usize::from(ca != cb);
                cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    #[test]
    fn scratch_kernel_matches_seed_across_reuse() {
        let words = [
            "",
            "a",
            "kitten",
            "sitting",
            "flaw",
            "lawn",
            "日本語",
            "日本",
            "naïve",
            "naive",
            "🙂 smile",
            "smile",
            "p00417",
            "p00471",
            "a much longer string than the others",
        ];
        // One scratch across every pair, long and short interleaved, so
        // stale cells from an earlier, longer row would show.
        let mut scratch = EditScratch::default();
        for a in words {
            for b in words {
                let want = edit_distance_seed(a, b);
                assert_eq!(edit_distance(a, b), want, "{a:?} vs {b:?}");
                let max = a.chars().count().max(b.chars().count());
                let sim = if max == 0 {
                    1.0
                } else {
                    1.0 - want as f64 / max as f64
                };
                let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
                assert_eq!(scratch.similarity(&ca, &cb).to_bits(), sim.to_bits());
                assert_eq!(scratch.similarity_str(a, b).to_bits(), sim.to_bits());
                assert_eq!(edit_similarity(a, b).to_bits(), sim.to_bits());
            }
        }
    }

    #[test]
    fn edit_similarity_bounds() {
        assert_eq!(edit_similarity("", ""), 1.0);
        assert!((edit_similarity("abcd", "abcf") - 0.75).abs() < 1e-9);
    }
}
