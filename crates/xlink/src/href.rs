//! URI references for `xlink:href`: document part + optional fragment
//! pointer, with relative-reference resolution against a base path.

use crate::error::XLinkError;
use std::fmt;
use std::sync::Arc;

/// A parsed `xlink:href`: the document being addressed and an optional
/// XPointer fragment.
///
/// navsep works with site-relative paths (there is no network layer in the
/// paper's world of local XML files), so `document` is a path like
/// `picasso.xml` or `/paintings/avignon.xml`, and `fragment` is everything
/// after `#`.
///
/// Both parts are shared strings: a linkbase expands each locator into
/// many traversals, and every copy of its href is a reference-count bump.
///
/// # Examples
///
/// ```
/// use navsep_xlink::Href;
///
/// let href: Href = "avignon.xml#xpointer(/painting/title)".parse()?;
/// assert_eq!(href.document(), "avignon.xml");
/// assert_eq!(href.fragment(), Some("xpointer(/painting/title)"));
///
/// let same_doc: Href = "#guitar".parse()?;
/// assert!(same_doc.is_same_document());
/// # Ok::<(), navsep_xlink::XLinkError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Href {
    document: Arc<str>,
    fragment: Option<Arc<str>>,
}

impl Href {
    /// Creates an href from a document path and optional fragment.
    pub fn new(document: impl Into<String>, fragment: Option<String>) -> Self {
        Href {
            document: Arc::from(document.into()),
            fragment: fragment.map(Arc::from),
        }
    }

    /// The document part (empty for same-document references).
    pub fn document(&self) -> &str {
        &self.document
    }

    /// The document part as the shared string it is stored in.
    pub(crate) fn shared_document(&self) -> &Arc<str> {
        &self.document
    }

    /// The fragment pointer, without the `#`.
    pub fn fragment(&self) -> Option<&str> {
        self.fragment.as_deref()
    }

    /// `true` when the href points into the containing document itself.
    pub fn is_same_document(&self) -> bool {
        self.document.is_empty()
    }

    /// Resolves this (possibly relative) reference against the path of the
    /// document that contains it.
    ///
    /// Handles `.` and `..` segments and absolute (`/…`) targets. The base is
    /// the *containing document's* path, e.g. `links/links.xml`.
    ///
    /// # Examples
    ///
    /// ```
    /// use navsep_xlink::Href;
    ///
    /// let href: Href = "../data/picasso.xml#p1".parse()?;
    /// let abs = href.resolve_against("links/nav/links.xml");
    /// assert_eq!(abs.document(), "links/data/picasso.xml");
    /// assert_eq!(abs.fragment(), Some("p1"));
    /// # Ok::<(), navsep_xlink::XLinkError>(())
    /// ```
    pub fn resolve_against(&self, base_path: &str) -> Href {
        if self.document.is_empty() || self.document.starts_with('/') {
            return self.clone();
        }
        let base_dir = match base_path.rfind('/') {
            Some(idx) => &base_path[..idx],
            None => "",
        };
        let mut segments: Vec<&str> = if base_dir.is_empty() {
            Vec::new()
        } else {
            base_dir.split('/').collect()
        };
        for seg in self.document.split('/') {
            match seg {
                "." | "" => {}
                ".." => {
                    segments.pop();
                }
                s => segments.push(s),
            }
        }
        let document = segments.join("/");
        if document == *self.document {
            return self.clone();
        }
        Href {
            document: Arc::from(document),
            fragment: self.fragment.clone(),
        }
    }
}

impl fmt::Display for Href {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.document)?;
        if let Some(frag) = &self.fragment {
            write!(f, "#{frag}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Href {
    type Err = XLinkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(XLinkError::InvalidHref(s.to_string()));
        }
        if s.contains(char::is_whitespace) {
            return Err(XLinkError::InvalidHref(s.to_string()));
        }
        match s.find('#') {
            Some(idx) => {
                let (doc, frag) = s.split_at(idx);
                let frag = &frag[1..];
                if frag.is_empty() {
                    return Err(XLinkError::InvalidHref(s.to_string()));
                }
                if frag.contains('#') {
                    return Err(XLinkError::InvalidHref(s.to_string()));
                }
                Ok(Href::new(doc, Some(frag.to_string())))
            }
            None => Ok(Href::new(s, None)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_forms() {
        let h: Href = "picasso.xml".parse().unwrap();
        assert_eq!(h.document(), "picasso.xml");
        assert_eq!(h.fragment(), None);

        let h: Href = "picasso.xml#guitar".parse().unwrap();
        assert_eq!(h.fragment(), Some("guitar"));

        let h: Href = "#guitar".parse().unwrap();
        assert!(h.is_same_document());
    }

    #[test]
    fn rejects_bad_hrefs() {
        assert!("".parse::<Href>().is_err());
        assert!("a b.xml".parse::<Href>().is_err());
        assert!("a.xml#".parse::<Href>().is_err());
        assert!("a.xml#x#y".parse::<Href>().is_err());
    }

    #[test]
    fn display_round_trip() {
        for s in ["a.xml", "a.xml#frag", "#frag", "dir/a.xml#element(/1)"] {
            let h: Href = s.parse().unwrap();
            assert_eq!(h.to_string(), s);
        }
    }

    #[test]
    fn relative_resolution() {
        let h: Href = "b.xml".parse().unwrap();
        assert_eq!(h.resolve_against("a.xml").document(), "b.xml");
        assert_eq!(h.resolve_against("sub/a.xml").document(), "sub/b.xml");

        let h: Href = "../up.xml".parse().unwrap();
        assert_eq!(h.resolve_against("sub/dir/a.xml").document(), "sub/up.xml");

        let h: Href = "./same.xml".parse().unwrap();
        assert_eq!(h.resolve_against("sub/a.xml").document(), "sub/same.xml");

        let h: Href = "/abs.xml".parse().unwrap();
        assert_eq!(h.resolve_against("sub/a.xml").document(), "/abs.xml");
    }

    #[test]
    fn same_document_resolution_is_identity() {
        let h: Href = "#frag".parse().unwrap();
        let r = h.resolve_against("deep/path/doc.xml");
        assert!(r.is_same_document());
        assert_eq!(r.fragment(), Some("frag"));
    }
}
