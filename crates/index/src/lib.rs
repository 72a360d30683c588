//! Full-text interval index for DejaView.
//!
//! The role PostgreSQL + Tsearch2 play in the original prototype (§4.2,
//! §4.4, §6), built from scratch: a [`TextIndex`] of text-visibility
//! instances with context (application, window, role, focus,
//! annotations), an inverted term index over them, a boolean +
//! contextual [`Query`] language with a string syntax, interval-algebra
//! evaluation ("locate the times in the display record in which the
//! query is satisfied"), ranked results, and a binary persistence
//! format.

#![deny(unsafe_code)]

pub mod index;
pub mod interval;
pub mod query;
pub mod search;
pub mod store;
pub mod tokenizer;

pub use index::{IndexStats, IndexedInstance, TextIndex};
pub use interval::{Interval, IntervalSet};
pub use query::{parse_query, ParseError, Query};
pub use search::{
    contains_phrase, evaluate, query_terms, search, snippet_of, RankOrder, SearchHit,
};
pub use store::{
    decode_index, encode_index, flush_encoded, flush_segment, merge_segments, StoreError,
};
