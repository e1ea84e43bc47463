//! The weaver: composes aspects with pages.
//!
//! This is the composition mechanism the paper's §5 calls for ("we should
//! implement a composition mechanism to make functionality and navigation
//! become one program"). Weaving is **deterministic**:
//!
//! 1. join points are enumerated on the *pristine* input page, so aspects
//!    never advise each other's insertions;
//! 2. aspects apply in (precedence, registration order); within one aspect,
//!    rules apply in declaration order;
//! 3. insertions at the same anchor preserve that order.

use crate::advice::{AdvicePosition, Realized};
use crate::aspect::Aspect;
use crate::error::WeaveError;
use crate::joinpoint::{join_points, JoinPoint};
use navsep_xml::{Document, NodeId};
use std::collections::HashMap;
use std::fmt;

/// A record of one advice application, for reports and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeaveEvent {
    /// Aspect name.
    pub aspect: String,
    /// Index of the rule inside the aspect.
    pub rule_index: usize,
    /// Where the content landed.
    pub position: AdvicePosition,
    /// Element path of the join point, e.g. `html/body`.
    pub element_path: String,
}

/// What happened while weaving one page.
#[derive(Debug, Clone, Default)]
pub struct WeaveReport {
    /// The page path.
    pub page: String,
    /// How many join points the page offered.
    pub join_points: usize,
    /// Every advice application, in application order.
    pub events: Vec<WeaveEvent>,
}

impl WeaveReport {
    /// Number of advice applications.
    pub fn applications(&self) -> usize {
        self.events.len()
    }

    /// Applications by a given aspect.
    pub fn applications_of(&self, aspect: &str) -> usize {
        self.events.iter().filter(|e| e.aspect == aspect).count()
    }
}

impl fmt::Display for WeaveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "wove {}: {} join points, {} applications",
            self.page,
            self.join_points,
            self.events.len()
        )?;
        for e in &self.events {
            writeln!(
                f,
                "  [{}#{}] {} at {}",
                e.aspect, e.rule_index, e.position, e.element_path
            )?;
        }
        Ok(())
    }
}

/// The weaver: an ordered collection of aspects.
///
/// # Examples
///
/// ```
/// use navsep_aspect::{Aspect, AdvicePosition, Pointcut, Weaver};
/// use navsep_xml::{Document, ElementBuilder};
///
/// let nav = Aspect::new("navigation").rule(
///     Pointcut::parse(r#"element("body")"#)?,
///     AdvicePosition::Append,
///     vec![ElementBuilder::new("a").attr("href", "next.html").text("Next")],
/// );
/// let weaver = Weaver::new().aspect(nav);
/// let page = Document::parse("<html><body><h1>Guitar</h1></body></html>")?;
/// let (woven, report) = weaver.weave_page("guitar.html", &page)?;
/// assert!(woven.to_xml_string().contains("href=\"next.html\""));
/// assert_eq!(report.applications(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Weaver {
    aspects: Vec<Aspect>,
}

impl Weaver {
    /// An empty weaver (weaving is then the identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an aspect (builder style).
    pub fn aspect(mut self, aspect: Aspect) -> Self {
        self.aspects.push(aspect);
        self
    }

    /// Registers an aspect (mutating style).
    pub fn add_aspect(&mut self, aspect: Aspect) {
        self.aspects.push(aspect);
    }

    /// The registered aspects, in registration order.
    pub fn aspects(&self) -> &[Aspect] {
        &self.aspects
    }

    /// Weaves all registered aspects into one page.
    ///
    /// Compiles the pointcuts against the page's
    /// [document index](navsep_xml::DocumentIndex) first, then iterates
    /// candidate join points per rule instead of the full element ×
    /// rule cross-product — see [`CompiledWeaver`](crate::CompiledWeaver).
    /// For repeated weaves, compile once with
    /// [`Weaver::compile`](Weaver::compile) and reuse the result.
    ///
    /// # Errors
    ///
    /// * [`WeaveError::EmptyPage`] when the page has no root element;
    /// * [`WeaveError::ReplaceConflict`] when two *different* aspects with
    ///   equal precedence both replace the same element's content;
    /// * [`WeaveError::DetachedJoinPoint`] when advice targets an element
    ///   that an earlier replace-content removed from the page.
    pub fn weave_page(
        &self,
        page: &str,
        doc: &Document,
    ) -> Result<(Document, WeaveReport), WeaveError> {
        self.compile().weave_page(page, doc)
    }

    /// Weaves one page the pre-index way: every rule tested against every
    /// join point. Kept as the executable specification of weaving — the
    /// compiled path must match it byte for byte (a proptest law) — and as
    /// the baseline the benches measure the compiled path against.
    ///
    /// # Errors
    ///
    /// Same as [`weave_page`](Weaver::weave_page).
    pub fn weave_page_naive(
        &self,
        page: &str,
        doc: &Document,
    ) -> Result<(Document, WeaveReport), WeaveError> {
        if doc.root_element().is_none() {
            return Err(WeaveError::EmptyPage(page.to_string()));
        }
        // The clone shares NodeIds with the input: matching happens on the
        // input, mutation on the clone — aspects never see each other. The
        // headroom keeps the first woven-in node from reallocating the whole
        // arena copy.
        let mut out = doc.cloned_with_headroom(weave_headroom(doc));
        let mut report = WeaveReport {
            page: page.to_string(),
            ..WeaveReport::default()
        };
        let jps = join_points(page, doc);
        report.join_points = jps.len();

        // Stable order: precedence, then registration order.
        let order = precedence_order(&self.aspects);
        let mut book = ApplyBook::default();

        for &ai in &order {
            let aspect = &self.aspects[ai];
            for (ri, rule) in aspect.rules().iter().enumerate() {
                for jp in &jps {
                    if !rule.pointcut.matches(jp) {
                        continue;
                    }
                    let realized = rule.advice.content.realize(jp);
                    apply_advice(
                        &self.aspects,
                        &mut out,
                        jp,
                        rule.advice.position,
                        realized,
                        ai,
                        &mut book,
                        page,
                    )?;
                    report.events.push(WeaveEvent {
                        aspect: aspect.name().to_string(),
                        rule_index: ri,
                        position: rule.advice.position,
                        element_path: jp.element_path(),
                    });
                }
            }
        }
        // The woven page may live on in retained epochs.
        out.release_headroom();
        Ok((out, report))
    }
    /// Compiles the weaver's pointcuts into a reusable
    /// [`CompiledWeaver`](crate::CompiledWeaver); weave many pages (or the
    /// same page repeatedly) without re-analyzing the rules.
    pub fn compile(&self) -> crate::compiled::CompiledWeaver {
        crate::compiled::CompiledWeaver::compile(self.aspects.clone())
    }
}

/// Arena headroom for the clone a weave mutates: enough spare slots that
/// typical advice volumes never trigger the grow-and-memcpy of a
/// capacity-exact clone, scaled so it stays a small fraction of the
/// document itself.
pub(crate) fn weave_headroom(doc: &Document) -> usize {
    (doc.len() / 16).max(64)
}

/// Stable aspect application order: precedence, then registration order.
pub(crate) fn precedence_order(aspects: &[Aspect]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..aspects.len()).collect();
    order.sort_by_key(|&i| (aspects[i].precedence(), i));
    order
}

/// Insertion bookkeeping for one page weave, shared across rules and
/// aspects so same-anchor insertions keep their order and replace
/// conflicts are detected.
#[derive(Debug, Default)]
pub(crate) struct ApplyBook {
    after_counts: HashMap<NodeId, usize>,
    prepend_counts: HashMap<NodeId, usize>,
    /// Who replaced which element: element -> (precedence, aspect index).
    replaced_by: HashMap<NodeId, (i32, usize)>,
}

/// Applies one realized advice at a join point. Both the naive and the
/// compiled weave paths funnel through here, so their mutation semantics
/// cannot drift apart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_advice(
    aspects: &[Aspect],
    out: &mut Document,
    jp: &JoinPoint<'_>,
    position: AdvicePosition,
    realized: Realized,
    aspect_index: usize,
    book: &mut ApplyBook,
    page: &str,
) -> Result<(), WeaveError> {
    let element = jp.element;
    // Join points are matched on the input page, where every element is
    // attached; only a `ReplaceContent` applied earlier to this output can
    // have detached one since.
    if !book.replaced_by.is_empty() && !is_attached(out, element) {
        return Err(WeaveError::DetachedJoinPoint {
            page: page.to_string(),
            aspect: aspects[aspect_index].name().to_string(),
        });
    }
    let new_nodes: Vec<NodeId> = match realized {
        Realized::Elements(builders) => builders.iter().map(|b| b.build_detached(out)).collect(),
        Realized::Text(t) => vec![out.create_detached_text(t)],
    };
    match position {
        AdvicePosition::Append => {
            for n in new_nodes {
                out.append_child(element, n);
            }
        }
        AdvicePosition::Prepend => {
            let base = book.prepend_counts.entry(element).or_insert(0);
            for n in new_nodes {
                out.insert_child_at(element, *base, n);
                *base += 1;
            }
        }
        AdvicePosition::Before => {
            // Attached (checked above), so the element has a parent and is
            // one of its children.
            let parent = out
                .parent(element)
                .expect("attached elements have a parent");
            for n in new_nodes {
                let idx = out
                    .children(parent)
                    .iter()
                    .position(|&c| c == element)
                    .expect("element is a child of its parent");
                out.insert_child_at(parent, idx, n);
            }
        }
        AdvicePosition::After => {
            let parent = out
                .parent(element)
                .expect("attached elements have a parent");
            let offset = book.after_counts.entry(element).or_insert(0);
            for n in new_nodes {
                let idx = out
                    .children(parent)
                    .iter()
                    .position(|&c| c == element)
                    .expect("element is a child of its parent");
                out.insert_child_at(parent, idx + 1 + *offset, n);
                *offset += 1;
            }
        }
        AdvicePosition::ReplaceContent => {
            let precedence = aspects[aspect_index].precedence();
            if let Some(&(prev_prec, prev_idx)) = book.replaced_by.get(&element) {
                if prev_prec == precedence && prev_idx != aspect_index {
                    return Err(WeaveError::ReplaceConflict {
                        page: page.to_string(),
                        aspects: (
                            aspects[prev_idx].name().to_string(),
                            aspects[aspect_index].name().to_string(),
                        ),
                    });
                }
            }
            book.replaced_by.insert(element, (precedence, aspect_index));
            for c in out.children(element).to_vec() {
                out.detach(c);
            }
            // Content replacement resets sibling bookkeeping.
            book.prepend_counts.remove(&element);
            for n in new_nodes {
                out.append_child(element, n);
            }
        }
    }
    Ok(())
}

/// `true` when `node` still hangs, through its ancestors, off the
/// document node of `doc`.
fn is_attached(doc: &Document, mut node: NodeId) -> bool {
    let top = doc.document_node();
    while node != top {
        match doc.parent(node) {
            Some(parent) => node = parent,
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointcut::Pointcut;
    use navsep_xml::ElementBuilder;

    fn page() -> Document {
        Document::parse("<html><body><h1>Guitar</h1><p>oil on canvas</p></body></html>").unwrap()
    }

    fn compact(doc: &Document) -> String {
        doc.to_xml(&navsep_xml::WriteOptions::default().declaration(false))
    }

    #[test]
    fn append_and_prepend() {
        let w = Weaver::new().aspect(
            Aspect::new("nav")
                .rule(
                    Pointcut::parse(r#"element("body")"#).unwrap(),
                    AdvicePosition::Append,
                    vec![ElementBuilder::new("footer").text("f")],
                )
                .rule(
                    Pointcut::parse(r#"element("body")"#).unwrap(),
                    AdvicePosition::Prepend,
                    vec![ElementBuilder::new("header").text("h")],
                ),
        );
        let (woven, report) = w.weave_page("p.html", &page()).unwrap();
        assert_eq!(
            compact(&woven),
            "<html><body><header>h</header><h1>Guitar</h1><p>oil on canvas</p><footer>f</footer></body></html>"
        );
        assert_eq!(report.applications(), 2);
    }

    #[test]
    fn before_and_after_preserve_declaration_order() {
        let w = Weaver::new().aspect(
            Aspect::new("a")
                .rule(
                    Pointcut::parse(r#"element("h1")"#).unwrap(),
                    AdvicePosition::After,
                    vec![ElementBuilder::new("x1")],
                )
                .rule(
                    Pointcut::parse(r#"element("h1")"#).unwrap(),
                    AdvicePosition::After,
                    vec![ElementBuilder::new("x2")],
                )
                .rule(
                    Pointcut::parse(r#"element("h1")"#).unwrap(),
                    AdvicePosition::Before,
                    vec![ElementBuilder::new("b1")],
                )
                .rule(
                    Pointcut::parse(r#"element("h1")"#).unwrap(),
                    AdvicePosition::Before,
                    vec![ElementBuilder::new("b2")],
                ),
        );
        let (woven, _) = w.weave_page("p.html", &page()).unwrap();
        assert_eq!(
            compact(&woven),
            "<html><body><b1/><b2/><h1>Guitar</h1><x1/><x2/><p>oil on canvas</p></body></html>"
        );
    }

    #[test]
    fn precedence_orders_aspects() {
        let late = Aspect::new("late").with_precedence(10).rule(
            Pointcut::parse(r#"element("body")"#).unwrap(),
            AdvicePosition::Append,
            vec![ElementBuilder::new("late")],
        );
        let early = Aspect::new("early").with_precedence(1).rule(
            Pointcut::parse(r#"element("body")"#).unwrap(),
            AdvicePosition::Append,
            vec![ElementBuilder::new("early")],
        );
        // Registration order is late-first, but precedence wins.
        let w = Weaver::new().aspect(late).aspect(early);
        let (woven, _) = w.weave_page("p.html", &page()).unwrap();
        let xml = compact(&woven);
        let early_pos = xml.find("<early/>").unwrap();
        let late_pos = xml.find("<late/>").unwrap();
        assert!(early_pos < late_pos, "{xml}");
    }

    #[test]
    fn aspects_do_not_advise_each_other() {
        // Aspect A inserts a <nav>; aspect B matches element("nav") — it must
        // NOT fire, because join points come from the pristine page.
        let a = Aspect::new("a").rule(
            Pointcut::parse(r#"element("body")"#).unwrap(),
            AdvicePosition::Append,
            vec![ElementBuilder::new("nav")],
        );
        let b = Aspect::new("b").with_precedence(5).text_rule(
            Pointcut::parse(r#"element("nav")"#).unwrap(),
            AdvicePosition::Append,
            "should not appear",
        );
        let w = Weaver::new().aspect(a).aspect(b);
        let (woven, report) = w.weave_page("p.html", &page()).unwrap();
        assert!(!compact(&woven).contains("should not appear"));
        assert_eq!(report.applications_of("b"), 0);
    }

    #[test]
    fn replace_content() {
        let w = Weaver::new().aspect(Aspect::new("r").rule(
            Pointcut::parse(r#"element("p")"#).unwrap(),
            AdvicePosition::ReplaceContent,
            vec![ElementBuilder::new("em").text("replaced")],
        ));
        let (woven, _) = w.weave_page("p.html", &page()).unwrap();
        assert!(compact(&woven).contains("<p><em>replaced</em></p>"));
        assert!(!compact(&woven).contains("oil on canvas"));
    }

    #[test]
    fn equal_precedence_replace_conflict_detected() {
        let a = Aspect::new("a").rule(
            Pointcut::parse(r#"element("p")"#).unwrap(),
            AdvicePosition::ReplaceContent,
            vec![],
        );
        let b = Aspect::new("b").rule(
            Pointcut::parse(r#"element("p")"#).unwrap(),
            AdvicePosition::ReplaceContent,
            vec![],
        );
        let w = Weaver::new().aspect(a).aspect(b);
        assert!(matches!(
            w.weave_page("p.html", &page()),
            Err(WeaveError::ReplaceConflict { .. })
        ));
    }

    #[test]
    fn advice_on_a_detached_join_point_is_a_typed_error() {
        // A replaces the <p>'s content; B then targets the <b> that the
        // replace detached. Both weavers refuse with the same typed error.
        let doc = Document::parse("<html><body><p>x <b>bold</b> y</p></body></html>").unwrap();
        let a = Aspect::new("a").rule(
            Pointcut::parse(r#"element("p")"#).unwrap(),
            AdvicePosition::ReplaceContent,
            vec![ElementBuilder::new("em")],
        );
        for position in [
            AdvicePosition::Before,
            AdvicePosition::After,
            AdvicePosition::Append,
            AdvicePosition::Prepend,
            AdvicePosition::ReplaceContent,
        ] {
            let b = Aspect::new("b").with_precedence(1).text_rule(
                Pointcut::parse(r#"element("b")"#).unwrap(),
                position,
                "!",
            );
            let w = Weaver::new().aspect(a.clone()).aspect(b);
            let expected = Err(WeaveError::DetachedJoinPoint {
                page: "p.html".into(),
                aspect: "b".into(),
            });
            assert_eq!(w.weave_page_naive("p.html", &doc).map(|_| ()), expected);
            assert_eq!(w.weave_page("p.html", &doc).map(|_| ()), expected);
        }
    }

    #[test]
    fn different_precedence_replace_resolves() {
        let a = Aspect::new("a").with_precedence(1).rule(
            Pointcut::parse(r#"element("p")"#).unwrap(),
            AdvicePosition::ReplaceContent,
            vec![ElementBuilder::new("low")],
        );
        let b = Aspect::new("b").with_precedence(2).rule(
            Pointcut::parse(r#"element("p")"#).unwrap(),
            AdvicePosition::ReplaceContent,
            vec![ElementBuilder::new("high")],
        );
        let w = Weaver::new().aspect(a).aspect(b);
        let (woven, _) = w.weave_page("p.html", &page()).unwrap();
        let xml = compact(&woven);
        assert!(xml.contains("<p><high/></p>"), "{xml}");
        assert!(!xml.contains("low"));
    }

    #[test]
    fn generated_content_varies_by_page() {
        let nav = Aspect::new("nav").generated_rule(
            Pointcut::parse(r#"element("body")"#).unwrap(),
            AdvicePosition::Append,
            |jp| vec![ElementBuilder::new("span").text(format!("page={}", jp.page))],
        );
        let w = Weaver::new().aspect(nav);
        let (one, _) = w.weave_page("one.html", &page()).unwrap();
        let (two, _) = w.weave_page("two.html", &page()).unwrap();
        assert!(compact(&one).contains("page=one.html"));
        assert!(compact(&two).contains("page=two.html"));
    }

    #[test]
    fn empty_weaver_is_identity() {
        let w = Weaver::new();
        let p = page();
        let (woven, report) = w.weave_page("p.html", &p).unwrap();
        assert_eq!(compact(&woven), compact(&p));
        assert_eq!(report.applications(), 0);
        assert_eq!(report.join_points, 4);
    }

    #[test]
    fn empty_page_rejected() {
        let w = Weaver::new();
        let doc = Document::new();
        assert!(matches!(
            w.weave_page("e.html", &doc),
            Err(WeaveError::EmptyPage(_))
        ));
    }

    #[test]
    fn report_display() {
        let w = Weaver::new().aspect(Aspect::new("nav").text_rule(
            Pointcut::parse(r#"element("h1")"#).unwrap(),
            AdvicePosition::Append,
            "!",
        ));
        let (_, report) = w.weave_page("p.html", &page()).unwrap();
        let text = report.to_string();
        assert!(text.contains("wove p.html"));
        assert!(text.contains("[nav#0] append at html/body/h1"));
    }
}
