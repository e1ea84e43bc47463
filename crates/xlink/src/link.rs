//! Simple and extended link structures, and arc expansion.
//!
//! An **extended link** (XLink 1.0 §5.1) is an element with
//! `xlink:type="extended"` containing:
//!
//! * *locator* children (`type="locator"`) naming **remote** resources;
//! * *resource* children (`type="resource"`) supplying **local** resources;
//! * *arc* children (`type="arc"`) declaring traversal rules between
//!   `xlink:label`s;
//! * *title* children (`type="title"`) for human consumption.
//!
//! Arcs name label *groups*: an arc `from="painting" to="painting"` with
//! three resources labeled `painting` expands to nine concrete traversals.
//! Omitted `from`/`to` mean "every label in the link". [`ExtendedLink::traversals`]
//! performs this expansion — it is what the navigation weaver consumes.

use crate::attrs::{Actuate, LinkType, Show, XLinkAttrs};
use crate::error::XLinkError;
use crate::href::Href;
use navsep_xml::{Document, NodeId};
use std::sync::Arc;

/// A link expressed entirely on one element (`xlink:type="simple"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleLink {
    /// The element carrying the link.
    pub element: NodeId,
    /// Where the link points.
    pub href: Href,
    /// Semantic role of the remote resource.
    pub role: Option<String>,
    /// Semantic role of the arc itself.
    pub arcrole: Option<String>,
    /// Human-readable title.
    pub title: Option<String>,
    /// Presentation intent.
    pub show: Show,
    /// Traversal timing.
    pub actuate: Actuate,
}

/// A remote resource participating in an extended link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Locator {
    /// The locator element.
    pub element: NodeId,
    /// Label other arcs refer to (may be absent, making it un-traversable).
    pub label: Option<String>,
    /// Where the remote resource lives.
    pub href: Href,
    /// Semantic role.
    pub role: Option<String>,
    /// Human-readable title.
    pub title: Option<String>,
}

/// A local resource participating in an extended link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    /// The resource element (its content *is* the resource).
    pub element: NodeId,
    /// Label other arcs refer to.
    pub label: Option<String>,
    /// Semantic role.
    pub role: Option<String>,
    /// Human-readable title.
    pub title: Option<String>,
}

/// A traversal rule between label groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArcRule {
    /// The arc element.
    pub element: NodeId,
    /// Starting label group; `None` = all labels.
    pub from: Option<String>,
    /// Ending label group; `None` = all labels.
    pub to: Option<String>,
    /// Semantic role of the traversal (e.g. the navsep `next` arcrole).
    pub arcrole: Option<String>,
    /// Presentation intent.
    pub show: Show,
    /// Traversal timing.
    pub actuate: Actuate,
    /// Human-readable title.
    pub title: Option<String>,
}

/// One endpoint of a concrete traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A remote resource (from a locator).
    Remote(Href),
    /// A local resource (content of a `resource` element).
    Local(NodeId),
}

impl Endpoint {
    /// The href when the endpoint is remote.
    pub fn href(&self) -> Option<&Href> {
        match self {
            Endpoint::Remote(h) => Some(h),
            Endpoint::Local(_) => None,
        }
    }
}

/// A concrete traversal produced by expanding an arc over its label groups.
///
/// An arc expands into many traversals that repeat its labels, role and
/// title, so those are shared strings: copying a traversal allocates
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traversal {
    /// Label of the starting resource.
    pub from_label: Arc<str>,
    /// Label of the ending resource.
    pub to_label: Arc<str>,
    /// Starting endpoint.
    pub from: Endpoint,
    /// Ending endpoint.
    pub to: Endpoint,
    /// The arc's semantic role.
    pub arcrole: Option<Arc<str>>,
    /// Presentation intent.
    pub show: Show,
    /// Traversal timing.
    pub actuate: Actuate,
    /// Arc title, falling back to the ending resource's title.
    pub title: Option<Arc<str>>,
}

/// An extended link: the parsed form of one `xlink:type="extended"` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtendedLink {
    /// The extended-link element.
    pub element: NodeId,
    /// Semantic role of the link as a whole.
    pub role: Option<String>,
    /// Title attribute of the link.
    pub title: Option<String>,
    /// Remote resources.
    pub locators: Vec<Locator>,
    /// Local resources.
    pub resources: Vec<Resource>,
    /// Traversal rules.
    pub arcs: Vec<ArcRule>,
}

impl ExtendedLink {
    /// Parses the element `el` (which must have `xlink:type="extended"`).
    ///
    /// # Errors
    ///
    /// Propagates attribute-enumeration errors and
    /// [`XLinkError::MissingHref`] for locators without an href.
    pub fn parse(doc: &Document, el: NodeId) -> Result<Self, XLinkError> {
        let attrs = XLinkAttrs::read(doc, el)?;
        let mut link = ExtendedLink {
            element: el,
            role: attrs.role,
            title: attrs.title,
            locators: Vec::new(),
            resources: Vec::new(),
            arcs: Vec::new(),
        };
        for child in doc.child_elements(el) {
            let a = XLinkAttrs::read(doc, child)?;
            match a.link_type {
                Some(LinkType::Locator) => {
                    let href_text = a.href.ok_or_else(|| XLinkError::MissingHref {
                        element: doc
                            .name(child)
                            .map(|q| q.local().to_string())
                            .unwrap_or_default(),
                    })?;
                    link.locators.push(Locator {
                        element: child,
                        label: a.label,
                        href: href_text.parse()?,
                        role: a.role,
                        title: a.title,
                    });
                }
                Some(LinkType::Resource) => link.resources.push(Resource {
                    element: child,
                    label: a.label,
                    role: a.role,
                    title: a.title,
                }),
                Some(LinkType::Arc) => link.arcs.push(ArcRule {
                    element: child,
                    from: a.from,
                    to: a.to,
                    arcrole: a.arcrole,
                    show: a.show.unwrap_or_default(),
                    actuate: a.actuate.unwrap_or_default(),
                    title: a.title,
                }),
                Some(LinkType::Title) | Some(LinkType::None) | None => {}
                Some(other) => {
                    return Err(XLinkError::MisplacedElement {
                        link_type: other.to_string(),
                    })
                }
            }
        }
        Ok(link)
    }

    /// All labels defined by this link's locators and resources, in
    /// document order, deduplicated.
    pub fn labels(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        let locator_labels = self.locators.iter().filter_map(|l| l.label.as_deref());
        let resource_labels = self.resources.iter().filter_map(|r| r.label.as_deref());
        for label in locator_labels.chain(resource_labels) {
            if !out.contains(&label) {
                out.push(label);
            }
        }
        out
    }

    fn endpoints_for_label(&self, label: &str) -> Vec<(Endpoint, Option<&str>)> {
        let mut out = Vec::new();
        for l in &self.locators {
            if l.label.as_deref() == Some(label) {
                out.push((Endpoint::Remote(l.href.clone()), l.title.as_deref()));
            }
        }
        for r in &self.resources {
            if r.label.as_deref() == Some(label) {
                out.push((Endpoint::Local(r.element), r.title.as_deref()));
            }
        }
        out
    }

    /// Expands every arc over its label groups into concrete traversals.
    ///
    /// Per XLink 1.0, an omitted `from`/`to` stands for *all* labels in the
    /// link. Traversals are produced in arc order, then from-resource order,
    /// then to-resource order — deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`XLinkError::UndefinedLabel`] when an arc names a label that
    /// no locator or resource defines.
    pub fn traversals(&self) -> Result<Vec<Traversal>, XLinkError> {
        let all_labels = self.labels();
        let mut out = Vec::new();
        for arc in &self.arcs {
            let from_labels: Vec<&str> = match &arc.from {
                Some(l) => {
                    if !all_labels.contains(&l.as_str()) {
                        return Err(XLinkError::UndefinedLabel {
                            label: l.clone(),
                            end: "from",
                        });
                    }
                    vec![l.as_str()]
                }
                None => all_labels.clone(),
            };
            let to_labels: Vec<&str> = match &arc.to {
                Some(l) => {
                    if !all_labels.contains(&l.as_str()) {
                        return Err(XLinkError::UndefinedLabel {
                            label: l.clone(),
                            end: "to",
                        });
                    }
                    vec![l.as_str()]
                }
                None => all_labels.clone(),
            };
            let arcrole: Option<Arc<str>> = arc.arcrole.as_deref().map(Arc::from);
            let arc_title: Option<Arc<str>> = arc.title.as_deref().map(Arc::from);
            // Each ending label with its endpoints and their titles, shared
            // by every starting endpoint of the arc.
            let to_groups: Vec<(Arc<str>, Vec<_>)> = to_labels
                .iter()
                .map(|&label| {
                    let endpoints = self
                        .endpoints_for_label(label)
                        .into_iter()
                        .map(|(ep, title)| (ep, arc_title.clone().or_else(|| title.map(Arc::from))))
                        .collect();
                    (Arc::from(label), endpoints)
                })
                .collect();
            for &from_label in &from_labels {
                let from_name: Arc<str> = Arc::from(from_label);
                for (from_ep, _) in self.endpoints_for_label(from_label) {
                    for (to_name, endpoints) in &to_groups {
                        for (to_ep, title) in endpoints {
                            out.push(Traversal {
                                from_label: Arc::clone(&from_name),
                                to_label: Arc::clone(to_name),
                                from: from_ep.clone(),
                                to: to_ep.clone(),
                                arcrole: arcrole.clone(),
                                show: arc.show,
                                actuate: arc.actuate,
                                title: title.clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Validates the link: every arc label defined, no duplicate
    /// (from, to) arc pairs (XLink 1.0 §5.1.3 "arc duplication").
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), XLinkError> {
        self.traversals()?;
        let mut seen = std::collections::HashSet::new();
        for arc in &self.arcs {
            let key = (arc.from.clone(), arc.to.clone());
            if !seen.insert(key) {
                // Duplicate arcs are a SHOULD-level violation; surface them
                // as an undefined-label-style error with context.
                return Err(XLinkError::UndefinedLabel {
                    label: format!(
                        "duplicate arc {}→{}",
                        arc.from.as_deref().unwrap_or("*"),
                        arc.to.as_deref().unwrap_or("*")
                    ),
                    end: "from",
                });
            }
        }
        Ok(())
    }
}

/// Extracts the simple link on `el`, if any.
///
/// Per XLink, an element with an `xlink:href` but no `xlink:type` is treated
/// as a simple link as well.
///
/// # Errors
///
/// Returns [`XLinkError::MissingHref`] when `xlink:type="simple"` is present
/// without an href, and propagates attribute errors.
pub fn simple_link(doc: &Document, el: NodeId) -> Result<Option<SimpleLink>, XLinkError> {
    let attrs = XLinkAttrs::read(doc, el)?;
    let is_simple = matches!(attrs.link_type, Some(LinkType::Simple))
        || (attrs.link_type.is_none() && attrs.href.is_some());
    if !is_simple {
        return Ok(None);
    }
    let href_text = attrs.href.ok_or_else(|| XLinkError::MissingHref {
        element: doc
            .name(el)
            .map(|q| q.local().to_string())
            .unwrap_or_default(),
    })?;
    Ok(Some(SimpleLink {
        element: el,
        href: href_text.parse()?,
        role: attrs.role,
        arcrole: attrs.arcrole,
        title: attrs.title,
        show: attrs.show.unwrap_or_default(),
        actuate: attrs.actuate.unwrap_or_default(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const XLINK: &str = "xmlns:xlink=\"http://www.w3.org/1999/xlink\"";

    fn extended_doc() -> Document {
        Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended" xlink:title="tour">
  <loc xlink:type="locator" xlink:label="painting" xlink:href="guitar.xml" xlink:title="Guitar"/>
  <loc xlink:type="locator" xlink:label="painting" xlink:href="guernica.xml" xlink:title="Guernica"/>
  <loc xlink:type="locator" xlink:label="index" xlink:href="picasso.xml"/>
  <go xlink:type="arc" xlink:from="index" xlink:to="painting" xlink:arcrole="urn:nav:entry"/>
  <go xlink:type="arc" xlink:from="painting" xlink:to="index" xlink:arcrole="urn:nav:up"/>
</links>"#
        ))
        .unwrap()
    }

    #[test]
    fn parses_extended_link() {
        let doc = extended_doc();
        let root = doc.root_element().unwrap();
        let link = ExtendedLink::parse(&doc, root).unwrap();
        assert_eq!(link.locators.len(), 3);
        assert_eq!(link.arcs.len(), 2);
        assert_eq!(link.labels(), vec!["painting", "index"]);
        assert_eq!(link.title.as_deref(), Some("tour"));
    }

    #[test]
    fn arc_expansion_over_label_groups() {
        let doc = extended_doc();
        let root = doc.root_element().unwrap();
        let link = ExtendedLink::parse(&doc, root).unwrap();
        let ts = link.traversals().unwrap();
        // index→painting expands to 1×2, painting→index to 2×1.
        assert_eq!(ts.len(), 4);
        let entry: Vec<_> = ts
            .iter()
            .filter(|t| t.arcrole.as_deref() == Some("urn:nav:entry"))
            .collect();
        assert_eq!(entry.len(), 2);
        assert_eq!(entry[0].to.href().unwrap().document(), "guitar.xml");
        // Title falls back to the ending locator's title.
        assert_eq!(entry[0].title.as_deref(), Some("Guitar"));
    }

    #[test]
    fn omitted_from_to_means_all_labels() {
        let doc = Document::parse(&format!(
            r#"<l {XLINK} xlink:type="extended">
  <r xlink:type="locator" xlink:label="a" xlink:href="a.xml"/>
  <r xlink:type="locator" xlink:label="b" xlink:href="b.xml"/>
  <arc xlink:type="arc"/>
</l>"#
        ))
        .unwrap();
        let link = ExtendedLink::parse(&doc, doc.root_element().unwrap()).unwrap();
        let ts = link.traversals().unwrap();
        assert_eq!(ts.len(), 4); // {a,b} × {a,b}
    }

    #[test]
    fn undefined_label_is_error() {
        let doc = Document::parse(&format!(
            r#"<l {XLINK} xlink:type="extended">
  <r xlink:type="locator" xlink:label="a" xlink:href="a.xml"/>
  <arc xlink:type="arc" xlink:from="a" xlink:to="ghost"/>
</l>"#
        ))
        .unwrap();
        let link = ExtendedLink::parse(&doc, doc.root_element().unwrap()).unwrap();
        assert!(matches!(
            link.traversals(),
            Err(XLinkError::UndefinedLabel { label, end: "to" }) if label == "ghost"
        ));
    }

    #[test]
    fn locator_requires_href() {
        let doc = Document::parse(&format!(
            r#"<l {XLINK} xlink:type="extended"><r xlink:type="locator" xlink:label="a"/></l>"#
        ))
        .unwrap();
        assert!(matches!(
            ExtendedLink::parse(&doc, doc.root_element().unwrap()),
            Err(XLinkError::MissingHref { .. })
        ));
    }

    #[test]
    fn local_resources_participate() {
        let doc = Document::parse(&format!(
            r#"<l {XLINK} xlink:type="extended">
  <here xlink:type="resource" xlink:label="src">click me</here>
  <there xlink:type="locator" xlink:label="dst" xlink:href="t.xml"/>
  <arc xlink:type="arc" xlink:from="src" xlink:to="dst"/>
</l>"#
        ))
        .unwrap();
        let link = ExtendedLink::parse(&doc, doc.root_element().unwrap()).unwrap();
        let ts = link.traversals().unwrap();
        assert_eq!(ts.len(), 1);
        assert!(matches!(ts[0].from, Endpoint::Local(_)));
        assert!(matches!(ts[0].to, Endpoint::Remote(_)));
    }

    #[test]
    fn duplicate_arcs_fail_validation() {
        let doc = Document::parse(&format!(
            r#"<l {XLINK} xlink:type="extended">
  <r xlink:type="locator" xlink:label="a" xlink:href="a.xml"/>
  <arc xlink:type="arc" xlink:from="a" xlink:to="a"/>
  <arc xlink:type="arc" xlink:from="a" xlink:to="a"/>
</l>"#
        ))
        .unwrap();
        let link = ExtendedLink::parse(&doc, doc.root_element().unwrap()).unwrap();
        assert!(link.validate().is_err());
    }

    #[test]
    fn simple_link_extraction() {
        let doc = Document::parse(&format!(
            r#"<p {XLINK}><a xlink:type="simple" xlink:href="x.xml#frag" xlink:show="new">go</a></p>"#
        ))
        .unwrap();
        let root = doc.root_element().unwrap();
        let a = doc.child_elements(root).next().unwrap();
        let link = simple_link(&doc, a).unwrap().unwrap();
        assert_eq!(link.href.document(), "x.xml");
        assert_eq!(link.href.fragment(), Some("frag"));
        assert_eq!(link.show, Show::New);
        // The <p> has no XLink markup.
        assert!(simple_link(&doc, root).unwrap().is_none());
    }

    #[test]
    fn bare_href_is_simple_link() {
        let doc = Document::parse(&format!(r#"<a {XLINK} xlink:href="x.xml"/>"#)).unwrap();
        let link = simple_link(&doc, doc.root_element().unwrap()).unwrap();
        assert!(link.is_some());
    }

    #[test]
    fn simple_type_without_href_is_error() {
        let doc = Document::parse(&format!(r#"<a {XLINK} xlink:type="simple"/>"#)).unwrap();
        assert!(matches!(
            simple_link(&doc, doc.root_element().unwrap()),
            Err(XLinkError::MissingHref { .. })
        ));
    }
}
