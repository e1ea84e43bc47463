//! Cross-document resolution of traversal endpoints.
//!
//! A [`Linkbase`] yields traversals whose endpoints are hrefs like
//! `picasso.xml#xpointer(//painting[@id='guitar'])`. This module turns those
//! into concrete `(document, node)` pairs by consulting a
//! [`DocumentProvider`] — the role a browser's fetch layer would play, had
//! 2002 browsers supported XLink (the paper's stated blocker).

use crate::error::XLinkError;
use crate::href::Href;
use crate::link::{Endpoint, Traversal};
use crate::linkbase::Linkbase;
use navsep_xml::{Document, NodeId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Supplies documents by site path. Implemented by in-memory maps here and
/// by `navsep-web`'s `Site`.
pub trait DocumentProvider {
    /// Returns the document stored at `path`, if any.
    fn document(&self, path: &str) -> Option<&Document>;
}

impl DocumentProvider for BTreeMap<String, Document> {
    fn document(&self, path: &str) -> Option<&Document> {
        self.get(path)
    }
}

/// A fully resolved traversal endpoint: which document, which node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedEndpoint {
    /// Site path of the containing document (the linkbase's, for local
    /// resources and same-document references).
    pub document: Arc<str>,
    /// The selected node (document root when no fragment was given).
    pub node: NodeId,
    /// The original href, for diagnostics (absent for local resources).
    pub href: Option<Href>,
}

/// A traversal with both endpoints resolved to nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedTraversal {
    /// The unresolved traversal (labels, arcrole, show/actuate, title).
    pub traversal: Traversal,
    /// Resolved starting endpoint.
    pub from: ResolvedEndpoint,
    /// Resolved ending endpoint.
    pub to: ResolvedEndpoint,
}

/// Resolves endpoints against a [`DocumentProvider`].
#[derive(Debug)]
pub struct Resolver<'p, P: DocumentProvider + ?Sized> {
    provider: &'p P,
    linkbase_path: Arc<str>,
}

impl<'p, P: DocumentProvider + ?Sized> Resolver<'p, P> {
    /// Creates a resolver reading documents from `provider`; `linkbase_path`
    /// is the path of the linkbase whose traversals will be resolved (used
    /// for same-document references).
    pub fn new(provider: &'p P, linkbase_path: impl Into<String>) -> Self {
        Resolver {
            provider,
            linkbase_path: Arc::from(linkbase_path.into()),
        }
    }

    /// Resolves one endpoint.
    ///
    /// # Errors
    ///
    /// * [`XLinkError::UnknownDocument`] when the href names a document the
    ///   provider cannot supply;
    /// * [`XLinkError::PointerFailed`] when the fragment selects nothing.
    pub fn resolve_endpoint(&self, ep: &Endpoint) -> Result<ResolvedEndpoint, XLinkError> {
        match ep {
            Endpoint::Local(node) => Ok(ResolvedEndpoint {
                document: Arc::clone(&self.linkbase_path),
                node: *node,
                href: None,
            }),
            Endpoint::Remote(href) => {
                let doc_path = target_path(href, &self.linkbase_path);
                let doc = self
                    .provider
                    .document(&doc_path)
                    .ok_or_else(|| XLinkError::UnknownDocument(doc_path.to_string()))?;
                Ok(ResolvedEndpoint {
                    node: select(doc, href)?,
                    document: doc_path,
                    href: Some(href.clone()),
                })
            }
        }
    }

    /// Resolves every traversal of `linkbase`, in expansion order.
    ///
    /// Each distinct href is resolved once per call: a linkbase names each
    /// painting in several arcs, and every traversal through it shares the
    /// one lookup. The result (and the first error) is exactly what
    /// resolving each traversal's endpoints one by one returns.
    ///
    /// # Errors
    ///
    /// Fails fast on the first unresolvable endpoint.
    pub fn resolve(&self, linkbase: &Linkbase) -> Result<Vec<ResolvedTraversal>, XLinkError> {
        let traversals = linkbase.expanded_traversals()?;
        let mut memo = EndpointMemo::default();
        let mut out = Vec::with_capacity(traversals.len());
        for t in traversals {
            let from = self.resolve_memoized(&t.from, &mut memo)?;
            let to = self.resolve_memoized(&t.to, &mut memo)?;
            out.push(ResolvedTraversal {
                traversal: t.clone(),
                from,
                to,
            });
        }
        Ok(out)
    }

    /// [`resolve_endpoint`](Resolver::resolve_endpoint) through a per-call
    /// memo keyed by href. Local endpoints need no lookup and bypass it.
    fn resolve_memoized<'t>(
        &self,
        ep: &'t Endpoint,
        memo: &mut EndpointMemo<'t>,
    ) -> Result<ResolvedEndpoint, XLinkError> {
        match ep {
            Endpoint::Local(_) => self.resolve_endpoint(ep),
            Endpoint::Remote(href) => memo
                .entry(href)
                .or_insert_with(|| self.resolve_endpoint(ep))
                .clone(),
        }
    }
}

/// One resolution per distinct href within a single resolve call.
type EndpointMemo<'t> = HashMap<&'t Href, Result<ResolvedEndpoint, XLinkError>>;

/// The path of the document `href` looks up: the linkbase's own, for a
/// same-document reference.
fn target_path(href: &Href, linkbase_path: &Arc<str>) -> Arc<str> {
    if href.is_same_document() {
        Arc::clone(linkbase_path)
    } else {
        Arc::clone(href.shared_document())
    }
}

/// The node `href`'s fragment selects in `doc` (its root when there is no
/// fragment).
fn select(doc: &Document, href: &Href) -> Result<NodeId, XLinkError> {
    let selected = match href.fragment() {
        Some(frag) => navsep_xpointer::resolve_first(doc, frag).map_err(|e| e.to_string()),
        None => doc.require_root().map_err(|e| e.to_string()),
    };
    selected.map_err(|reason| XLinkError::PointerFailed {
        href: href.to_string(),
        reason,
    })
}

/// Validation of one linkbase's locators that survives between calls:
/// [`validate`](ResolutionMemo::validate) succeeds exactly when
/// [`Resolver::resolve`] over the same linkbase would, and fails with the
/// same first error, but re-resolves only the hrefs whose target document
/// changed since it last looked.
///
/// Each distinct remote href keeps the outcome of its last resolution under
/// the [`content_hash`](Document::content_hash) of the document it looked
/// up (the linkbase's own document, for same-document references). A later
/// call looks the document up again and compares hashes: equal content
/// selects the same node, so only hrefs whose document now differs from the
/// one they were last resolved in are resolved again. A missing document is
/// an error on every call; it is never remembered.
///
/// # Examples
///
/// ```
/// use navsep_xml::Document;
/// use navsep_xlink::{Linkbase, ResolutionMemo, XLinkError};
/// use std::collections::BTreeMap;
///
/// let links = Document::parse(r#"<links xmlns:xlink="http://www.w3.org/1999/xlink"
///     xlink:type="extended">
///   <l xlink:type="locator" xlink:label="a" xlink:href="a.xml"/>
///   <l xlink:type="locator" xlink:label="b" xlink:href="b.xml#x"/>
///   <go xlink:type="arc" xlink:from="a" xlink:to="b"/>
/// </links>"#)?;
/// let mut memo = ResolutionMemo::new(&Linkbase::from_document(&links, "links.xml")?);
///
/// let mut site = BTreeMap::new();
/// site.insert("a.xml".to_string(), Document::parse("<a/>")?);
/// site.insert("b.xml".to_string(), Document::parse(r#"<b><c id="x"/></b>"#)?);
/// assert_eq!(memo.validate(&site), Ok(2)); // both hrefs resolved
/// assert_eq!(memo.validate(&site), Ok(0)); // nothing changed
///
/// site.insert("b.xml".to_string(), Document::parse("<b/>")?);
/// assert!(matches!(memo.validate(&site), Err(XLinkError::PointerFailed { .. })));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ResolutionMemo {
    /// The first arc-expansion error; it fails every call.
    expansion_error: Option<XLinkError>,
    /// Distinct remote hrefs in first-appearance order.
    hrefs: Vec<MemoizedHref>,
}

/// One distinct remote href and what its last resolution found.
#[derive(Debug)]
struct MemoizedHref {
    href: Href,
    /// The path the href looks up.
    document: Arc<str>,
    /// The looked-up document's content hash, and the outcome there.
    last: Option<(u64, Result<(), XLinkError>)>,
}

impl ResolutionMemo {
    /// A memo for `linkbase`'s locators that has resolved none of them yet.
    pub fn new(linkbase: &Linkbase) -> Self {
        let (expansion_error, traversals) = match linkbase.expanded_traversals() {
            Ok(traversals) => (None, traversals),
            Err(e) => (Some(e), &[][..]),
        };
        let linkbase_path: Arc<str> = Arc::from(linkbase.path());
        let mut seen = HashSet::new();
        let hrefs = traversals
            .iter()
            .flat_map(|t| [&t.from, &t.to])
            .filter_map(|ep| match ep {
                Endpoint::Remote(href) => Some(href),
                Endpoint::Local(_) => None,
            })
            .filter(|href| seen.insert(*href))
            .map(|href| MemoizedHref {
                href: href.clone(),
                document: target_path(href, &linkbase_path),
                last: None,
            })
            .collect();
        ResolutionMemo {
            expansion_error,
            hrefs,
        }
    }

    /// Checks every locator against `provider`, in the order
    /// [`Resolver::resolve`] meets them, and returns how many hrefs had to
    /// be resolved again (the others' documents were unchanged).
    ///
    /// # Errors
    ///
    /// The first error [`Resolver::resolve`] would return: an arc-expansion
    /// error, [`XLinkError::UnknownDocument`] or
    /// [`XLinkError::PointerFailed`].
    pub fn validate<P: DocumentProvider + ?Sized>(
        &mut self,
        provider: &P,
    ) -> Result<usize, XLinkError> {
        if let Some(e) = &self.expansion_error {
            return Err(e.clone());
        }
        let mut resolved = 0;
        for entry in &mut self.hrefs {
            let doc = provider
                .document(&entry.document)
                .ok_or_else(|| XLinkError::UnknownDocument(entry.document.to_string()))?;
            let hash = doc.content_hash();
            let outcome = match &entry.last {
                Some((held, outcome)) if *held == hash => outcome,
                _ => {
                    resolved += 1;
                    let outcome = select(doc, &entry.href).map(drop);
                    &entry.last.insert((hash, outcome)).1
                }
            };
            outcome.clone()?;
        }
        Ok(resolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const XLINK: &str = "xmlns:xlink=\"http://www.w3.org/1999/xlink\"";

    fn provider() -> BTreeMap<String, Document> {
        let mut m = BTreeMap::new();
        m.insert(
            "picasso.xml".to_string(),
            Document::parse(
                r#"<painter id="picasso"><painting id="guitar"/><painting id="guernica"/></painter>"#,
            )
            .unwrap(),
        );
        m.insert(
            "avignon.xml".to_string(),
            Document::parse(r#"<painting id="avignon"><title>Les Demoiselles</title></painting>"#)
                .unwrap(),
        );
        m
    }

    fn linkbase(provider_docs: &BTreeMap<String, Document>) -> (Document, Linkbase) {
        let _ = provider_docs;
        let doc = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <l xlink:type="locator" xlink:label="painter" xlink:href="picasso.xml"/>
  <l xlink:type="locator" xlink:label="work" xlink:href="picasso.xml#guitar"/>
  <l xlink:type="locator" xlink:label="work" xlink:href="avignon.xml"/>
  <arc xlink:type="arc" xlink:from="painter" xlink:to="work" xlink:arcrole="urn:nav:index"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        (doc, lb)
    }

    #[test]
    fn resolves_documents_and_fragments() {
        let docs = provider();
        let (_lbdoc, lb) = linkbase(&docs);
        let resolver = Resolver::new(&docs, "links.xml");
        let resolved = resolver.resolve(&lb).unwrap();
        assert_eq!(resolved.len(), 2);
        // First target: fragment #guitar inside picasso.xml.
        let guitar = &resolved[0].to;
        assert_eq!(&*guitar.document, "picasso.xml");
        let pdoc = docs.document("picasso.xml").unwrap();
        assert_eq!(pdoc.attribute(guitar.node, "id"), Some("guitar"));
        // Second target: whole avignon.xml (root element).
        let avignon = &resolved[1].to;
        assert_eq!(&*avignon.document, "avignon.xml");
        let adoc = docs.document("avignon.xml").unwrap();
        assert_eq!(adoc.attribute(avignon.node, "id"), Some("avignon"));
    }

    #[test]
    fn unknown_document_fails() {
        let docs = provider();
        let doc = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <l xlink:type="locator" xlink:label="x" xlink:href="ghost.xml"/>
  <arc xlink:type="arc" xlink:from="x" xlink:to="x"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        let resolver = Resolver::new(&docs, "links.xml");
        assert!(matches!(
            resolver.resolve(&lb),
            Err(XLinkError::UnknownDocument(d)) if d == "ghost.xml"
        ));
    }

    #[test]
    fn failed_pointer_reported() {
        let docs = provider();
        let doc = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <l xlink:type="locator" xlink:label="x" xlink:href="picasso.xml#missing"/>
  <arc xlink:type="arc" xlink:from="x" xlink:to="x"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        let resolver = Resolver::new(&docs, "links.xml");
        assert!(matches!(
            resolver.resolve(&lb),
            Err(XLinkError::PointerFailed { .. })
        ));
    }

    #[test]
    fn local_resource_endpoint_resolves_to_linkbase() {
        let docs = provider();
        let doc = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <here xlink:type="resource" xlink:label="src">from here</here>
  <l xlink:type="locator" xlink:label="dst" xlink:href="picasso.xml"/>
  <arc xlink:type="arc" xlink:from="src" xlink:to="dst"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        let resolver = Resolver::new(&docs, "links.xml");
        let resolved = resolver.resolve(&lb).unwrap();
        assert_eq!(&*resolved[0].from.document, "links.xml");
        assert!(resolved[0].from.href.is_none());
    }
}
