//! Linkbases: documents whose purpose is to carry extended links.
//!
//! The heart of the paper's proposal (§6): keep the data in `picasso.xml`,
//! `avignon.xml`, …, and the *links between them* in a separate `links.xml`.
//! That separate document is, in XLink terms, a **linkbase**. This module
//! loads every extended link (and standalone simple link) from such a
//! document and exposes the combined traversal set.

use crate::attrs::{LinkType, XLinkAttrs, LINKBASE_ARCROLE};
use crate::error::XLinkError;
use crate::href::Href;
use crate::link::{simple_link, Endpoint, ExtendedLink, SimpleLink, Traversal};
use navsep_xml::{Document, NodeId};
use std::sync::OnceLock;

/// All XLink content of one document.
///
/// A linkbase is immutable once loaded, so the traversal expansion is
/// computed on first use and memoized: every later call (and every
/// [`Resolver::resolve`](crate::Resolver::resolve) over it) reads the same
/// expansion, or gets the same error back.
///
/// # Examples
///
/// ```
/// use navsep_xml::Document;
/// use navsep_xlink::Linkbase;
///
/// let doc = Document::parse(r#"<links xmlns:xlink="http://www.w3.org/1999/xlink"
///   xlink:type="extended">
///   <l xlink:type="locator" xlink:label="p" xlink:href="guitar.xml"/>
///   <l xlink:type="locator" xlink:label="p" xlink:href="guernica.xml"/>
///   <a xlink:type="arc" xlink:from="p" xlink:to="p" xlink:arcrole="urn:nav:next"/>
/// </links>"#)?;
/// let lb = Linkbase::from_document(&doc, "links.xml")?;
/// assert_eq!(lb.extended_links().len(), 1);
/// assert_eq!(lb.traversals()?.len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Linkbase {
    path: String,
    extended: Vec<ExtendedLink>,
    simple: Vec<SimpleLink>,
    /// Memoized expansion of every extended link.
    expanded: OnceLock<Expansion>,
}

/// The traversals of every extended link, concatenated in document order.
#[derive(Debug, Clone)]
struct Expansion {
    traversals: Vec<Traversal>,
    /// `ends[i]` is where link `i`'s traversals end. Shorter than the link
    /// list when a link failed to expand; `error` then says why.
    ends: Vec<usize>,
    error: Option<XLinkError>,
}

impl Linkbase {
    /// Scans `doc` (stored at site path `path`) for every extended and
    /// simple link.
    ///
    /// # Errors
    ///
    /// Propagates any malformed XLink markup found along the way.
    pub fn from_document(doc: &Document, path: impl Into<String>) -> Result<Self, XLinkError> {
        let mut extended = Vec::new();
        let mut simple = Vec::new();
        let mut inside_extended: Vec<NodeId> = Vec::new();

        for node in doc.descendants(doc.document_node()) {
            if !doc.is_element(node) {
                continue;
            }
            // Skip children of an already-captured extended link.
            if inside_extended
                .iter()
                .any(|&e| is_descendant_of(doc, node, e))
            {
                continue;
            }
            let attrs = XLinkAttrs::read(doc, node)?;
            match attrs.link_type {
                Some(LinkType::Extended) => {
                    extended.push(ExtendedLink::parse(doc, node)?);
                    inside_extended.push(node);
                }
                Some(LinkType::Locator) | Some(LinkType::Arc) | Some(LinkType::Resource) => {
                    return Err(XLinkError::MisplacedElement {
                        link_type: attrs.link_type.unwrap().to_string(),
                    });
                }
                _ => {
                    if let Some(link) = simple_link(doc, node)? {
                        simple.push(link);
                    }
                }
            }
        }
        Ok(Linkbase {
            path: path.into(),
            extended,
            simple,
            expanded: OnceLock::new(),
        })
    }

    /// The site path this linkbase was loaded from.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The extended links, in document order.
    pub fn extended_links(&self) -> &[ExtendedLink] {
        &self.extended
    }

    /// Standalone simple links found outside extended links.
    pub fn simple_links(&self) -> &[SimpleLink] {
        &self.simple
    }

    /// Expands all extended links into concrete traversals, with every
    /// remote href resolved against this linkbase's own path.
    ///
    /// # Errors
    ///
    /// Returns the first arc-expansion error.
    pub fn traversals(&self) -> Result<Vec<Traversal>, XLinkError> {
        self.expanded_traversals().map(<[Traversal]>::to_vec)
    }

    /// [`traversals`](Linkbase::traversals) without the copy: the memoized
    /// expansion, computed on the first call.
    ///
    /// # Errors
    ///
    /// Returns the first arc-expansion error (the same one on every call).
    pub fn expanded_traversals(&self) -> Result<&[Traversal], XLinkError> {
        let expansion = self.expansion();
        match &expansion.error {
            Some(e) => Err(e.clone()),
            None => Ok(&expansion.traversals),
        }
    }

    /// Each extended link with its slice of the memoized expansion, in
    /// document order. Iteration stops after the first link that fails to
    /// expand, which comes with its error.
    pub fn link_traversals(
        &self,
    ) -> impl Iterator<Item = (&ExtendedLink, Result<&[Traversal], XLinkError>)> + '_ {
        let expansion = self.expansion();
        let failed = expansion
            .error
            .clone()
            .map(|e| (&self.extended[expansion.ends.len()], Err(e)));
        let starts = std::iter::once(0).chain(expansion.ends.iter().copied());
        self.extended
            .iter()
            .zip(starts.zip(&expansion.ends))
            .map(|(link, (start, &end))| (link, Ok(&expansion.traversals[start..end])))
            .chain(failed)
    }

    fn expansion(&self) -> &Expansion {
        self.expanded.get_or_init(|| {
            let mut expansion = Expansion {
                traversals: Vec::new(),
                ends: Vec::with_capacity(self.extended.len()),
                error: None,
            };
            for link in &self.extended {
                match link.traversals() {
                    Ok(traversals) => {
                        expansion
                            .traversals
                            .extend(traversals.into_iter().map(|mut t| {
                                if let Endpoint::Remote(h) = &t.from {
                                    t.from = Endpoint::Remote(h.resolve_against(&self.path));
                                }
                                if let Endpoint::Remote(h) = &t.to {
                                    t.to = Endpoint::Remote(h.resolve_against(&self.path));
                                }
                                t
                            }))
                    }
                    Err(e) => {
                        expansion.error = Some(e);
                        break;
                    }
                }
                expansion.ends.push(expansion.traversals.len());
            }
            expansion
        })
    }

    /// Traversals carrying the given arcrole.
    ///
    /// # Errors
    ///
    /// Returns the first arc-expansion error.
    pub fn traversals_with_arcrole(&self, arcrole: &str) -> Result<Vec<Traversal>, XLinkError> {
        Ok(self
            .expanded_traversals()?
            .iter()
            .filter(|t| t.arcrole.as_deref() == Some(arcrole))
            .cloned()
            .collect())
    }

    /// Hrefs of further linkbases referenced with the reserved linkbase
    /// arcrole (XLink 1.0 §5.1.5) — both from arcs and simple links.
    ///
    /// # Errors
    ///
    /// Returns the first arc-expansion error.
    pub fn referenced_linkbases(&self) -> Result<Vec<Href>, XLinkError> {
        let mut out: Vec<Href> = self
            .traversals_with_arcrole(LINKBASE_ARCROLE)?
            .into_iter()
            .filter_map(|t| t.to.href().cloned())
            .collect();
        for s in &self.simple {
            if s.arcrole.as_deref() == Some(LINKBASE_ARCROLE) {
                out.push(s.href.resolve_against(&self.path));
            }
        }
        out.dedup();
        Ok(out)
    }

    /// Every document path referenced by any traversal endpoint or simple
    /// link, deduplicated — the set the resolver must be able to supply.
    ///
    /// # Errors
    ///
    /// Returns the first arc-expansion error.
    pub fn referenced_documents(&self) -> Result<Vec<String>, XLinkError> {
        let mut out: Vec<String> = Vec::new();
        let mut push = |doc: &str| {
            if !doc.is_empty() && !out.iter().any(|d| d == doc) {
                out.push(doc.to_string());
            }
        };
        for t in self.expanded_traversals()? {
            if let Some(h) = t.from.href() {
                push(h.document());
            }
            if let Some(h) = t.to.href() {
                push(h.document());
            }
        }
        for s in &self.simple {
            push(s.href.resolve_against(&self.path).document());
        }
        Ok(out)
    }
}

fn is_descendant_of(doc: &Document, node: NodeId, ancestor: NodeId) -> bool {
    let mut cur = Some(node);
    while let Some(n) = cur {
        if n == ancestor {
            return true;
        }
        cur = doc.parent(n);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    const XLINK: &str = "xmlns:xlink=\"http://www.w3.org/1999/xlink\"";

    #[test]
    fn loads_multiple_extended_links() {
        let doc = Document::parse(&format!(
            r#"<linkbase {XLINK}>
  <links xlink:type="extended">
    <l xlink:type="locator" xlink:label="a" xlink:href="a.xml"/>
    <l xlink:type="locator" xlink:label="b" xlink:href="b.xml"/>
    <arc xlink:type="arc" xlink:from="a" xlink:to="b"/>
  </links>
  <links xlink:type="extended">
    <l xlink:type="locator" xlink:label="x" xlink:href="x.xml"/>
    <l xlink:type="locator" xlink:label="y" xlink:href="y.xml"/>
    <arc xlink:type="arc" xlink:from="x" xlink:to="y"/>
  </links>
</linkbase>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        assert_eq!(lb.extended_links().len(), 2);
        assert_eq!(lb.traversals().unwrap().len(), 2);
    }

    #[test]
    fn expansion_is_memoized_errors_included() {
        let doc = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <l xlink:type="locator" xlink:label="a" xlink:href="a.xml"/>
  <arc xlink:type="arc" xlink:from="a" xlink:to="a"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        let first = lb.expanded_traversals().unwrap();
        assert!(std::ptr::eq(first, lb.expanded_traversals().unwrap()));
        assert_eq!(lb.traversals().unwrap(), first);
        let per_link: Vec<_> = lb.link_traversals().collect();
        assert_eq!(per_link.len(), 1);
        assert!(std::ptr::eq(per_link[0].1.as_deref().unwrap(), first));

        let bad = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <l xlink:type="locator" xlink:label="a" xlink:href="a.xml"/>
  <arc xlink:type="arc" xlink:from="a" xlink:to="ghost"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&bad, "links.xml").unwrap();
        let err = lb.traversals().unwrap_err();
        assert!(matches!(err, XLinkError::UndefinedLabel { end: "to", .. }));
        assert_eq!(lb.expanded_traversals().unwrap_err(), err);
        let per_link: Vec<_> = lb.link_traversals().collect();
        assert_eq!(per_link.len(), 1);
        assert_eq!(per_link[0].1, Err(err));
    }

    #[test]
    fn stray_locator_outside_extended_rejected() {
        let doc = Document::parse(&format!(
            r#"<x {XLINK}><l xlink:type="locator" xlink:href="a.xml"/></x>"#
        ))
        .unwrap();
        assert!(matches!(
            Linkbase::from_document(&doc, "links.xml"),
            Err(XLinkError::MisplacedElement { .. })
        ));
    }

    #[test]
    fn hrefs_resolved_against_linkbase_path() {
        let doc = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <l xlink:type="locator" xlink:label="a" xlink:href="data/a.xml"/>
  <arc xlink:type="arc" xlink:from="a" xlink:to="a"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "nav/links.xml").unwrap();
        let ts = lb.traversals().unwrap();
        assert_eq!(ts[0].to.href().unwrap().document(), "nav/data/a.xml");
    }

    #[test]
    fn referenced_documents_deduplicated() {
        let doc = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <l xlink:type="locator" xlink:label="p" xlink:href="a.xml#one"/>
  <l xlink:type="locator" xlink:label="p" xlink:href="a.xml#two"/>
  <l xlink:type="locator" xlink:label="q" xlink:href="b.xml"/>
  <arc xlink:type="arc" xlink:from="p" xlink:to="q"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        assert_eq!(lb.referenced_documents().unwrap(), vec!["a.xml", "b.xml"]);
    }

    #[test]
    fn linkbase_arcrole_discovery() {
        let doc = Document::parse(&format!(
            r#"<x {XLINK}><more xlink:type="simple" xlink:href="other-links.xml"
                 xlink:arcrole="http://www.w3.org/1999/xlink/properties/linkbase"/></x>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        let refs = lb.referenced_linkbases().unwrap();
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].document(), "other-links.xml");
    }

    #[test]
    fn simple_links_collected() {
        let doc = Document::parse(&format!(
            r#"<page {XLINK}><a xlink:href="x.xml">go</a><a xlink:href="y.xml">go</a></page>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "page.xml").unwrap();
        assert_eq!(lb.simple_links().len(), 2);
        assert!(lb.extended_links().is_empty());
    }
}
