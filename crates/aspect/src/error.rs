//! Errors for the aspect engine.

use std::error::Error as StdError;
use std::fmt;

/// Failure to parse a pointcut expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePointcutError {
    message: String,
    offset: usize,
}

impl ParsePointcutError {
    pub(crate) fn new(message: impl Into<String>, offset: usize) -> Self {
        ParsePointcutError {
            message: message.into(),
            offset,
        }
    }

    /// Why parsing failed.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Byte offset of the failure in the pointcut text.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParsePointcutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid pointcut at offset {}: {}",
            self.offset, self.message
        )
    }
}

impl StdError for ParsePointcutError {}

/// Failure while weaving aspects into a page.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WeaveError {
    /// Two aspects with equal precedence tried to replace the same element's
    /// content.
    ReplaceConflict {
        /// The page being woven.
        page: String,
        /// The two aspect names.
        aspects: (String, String),
    },
    /// The page has no root element to weave into.
    EmptyPage(String),
    /// Advice targets a join point that an earlier `ReplaceContent` (of a
    /// higher-precedence or earlier aspect) detached from the page, so
    /// there is no place left in the document to apply it.
    DetachedJoinPoint {
        /// The page being woven.
        page: String,
        /// The aspect whose advice found its join point detached.
        aspect: String,
    },
}

impl fmt::Display for WeaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeaveError::ReplaceConflict { page, aspects } => write!(
                f,
                "aspects {:?} and {:?} both replace content on page {page:?} with equal precedence",
                aspects.0, aspects.1
            ),
            WeaveError::EmptyPage(p) => write!(f, "page {p:?} has no root element"),
            WeaveError::DetachedJoinPoint { page, aspect } => write!(
                f,
                "aspect {aspect:?} advises an element of page {page:?} that an earlier replace-content detached"
            ),
        }
    }
}

impl StdError for WeaveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = ParsePointcutError::new("expected ')'", 4);
        assert!(e.to_string().contains("offset 4"));
        let w = WeaveError::ReplaceConflict {
            page: "p.html".into(),
            aspects: ("nav".into(), "ads".into()),
        };
        assert!(w.to_string().contains("nav"));
    }
}
