//! Regression tests for the publisher.
//!
//! * **Sharing.** A parsed document is immutable once it enters a site, so
//!   a K-page data commit copies nothing it did not rewrite: every
//!   untouched source and woven page is the very same `Arc` before and
//!   after, in the publisher's sources, in its last woven site and in the
//!   store. The retention ring keeps serving the old version of the pages
//!   the commit did rewrite, byte for byte.
//! * **Detached join points.** Advice on an element that an earlier
//!   `replace-content` detached is a typed weave error, not a panic.
//! * **Organic failures.** Only a failure the fault layer injected is worth
//!   retrying; a deterministic error (here a transform that used to panic)
//!   surfaces on the first attempt.

use navsep_aspect::WeaveError;
use navsep_core::fault::{sites, FaultKind, FaultPlan, FaultRule};
use navsep_core::layout::{data_to_page, ASPECTS_PATH, TRANSFORM_PATH};
use navsep_core::museum::{museum_navigation, paper_museum};
use navsep_core::publish::{SitePublisher, SourceEdit};
use navsep_core::separated::{separated_sources, MUSEUM_TRANSFORM};
use navsep_core::spec::paper_spec;
use navsep_core::CoreError;
use navsep_hypermodel::AccessStructureKind;
use navsep_style::TemplateError;
use navsep_web::{ShardedSiteStore, Site};
use navsep_xml::Document;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn publisher() -> (SitePublisher, Arc<ShardedSiteStore>) {
    let sources = separated_sources(
        &paper_museum(),
        &museum_navigation(),
        &paper_spec(AccessStructureKind::IndexedGuidedTour),
    )
    .unwrap();
    let store = Arc::new(ShardedSiteStore::new(8));
    (SitePublisher::new(sources, Arc::clone(&store)), store)
}

/// Every document of `site`, by path, as the shared handle plus its
/// serialization at this moment.
fn documents(site: &Site) -> BTreeMap<String, (Arc<Document>, String)> {
    site.iter()
        .filter_map(|(path, res)| {
            let doc = res.shared_document()?;
            Some((path.to_string(), (Arc::clone(doc), doc.to_xml_string())))
        })
        .collect()
}

/// Every store entry, by path: (generation, shared document, body).
type StoreView = BTreeMap<String, (u64, Arc<Document>, bytes::Bytes)>;

fn store_documents(store: &ShardedSiteStore) -> StoreView {
    store
        .paths()
        .into_iter()
        .filter_map(|path| {
            let read = store.get(&path)?;
            let doc = Arc::clone(read.resource().shared_document()?);
            Some((path, (read.generation(), doc, read.body())))
        })
        .collect()
}

fn edited(path: &str, title: &str) -> SourceEdit {
    let id = path.trim_end_matches(".xml");
    SourceEdit::put_document(
        path,
        Document::parse(&format!(
            r#"<painting id="{id}"><title>{title}</title><year>1913</year></painting>"#
        ))
        .unwrap(),
    )
}

#[test]
fn a_data_commit_shares_every_untouched_document() {
    let (mut p, store) = publisher();
    p.commit().unwrap();
    let sources_before = documents(p.sources());
    let woven_before = documents(p.last_woven().unwrap());
    let store_before = store_documents(&store);
    // The live store serves the very documents of the last woven site.
    for (path, (doc, _)) in &woven_before {
        assert!(Arc::ptr_eq(doc, &store_before[path].1), "{path}");
    }

    let touched = ["guitar.xml", "avignon.xml"];
    for path in touched {
        p.stage(edited(path, "Retitled"));
    }
    let outcome = p.commit().unwrap();
    assert_eq!(outcome.pages_rewoven, touched.len());

    let touched_pages: Vec<String> = touched.iter().filter_map(|p| data_to_page(p)).collect();
    let sources_after = documents(p.sources());
    let woven_after = documents(p.last_woven().unwrap());
    let store_after = store_documents(&store);
    assert_eq!(sources_after.len(), sources_before.len());
    for (path, (doc, _)) in &sources_after {
        let same = Arc::ptr_eq(doc, &sources_before[path].0);
        assert_eq!(same, !touched.contains(&path.as_str()), "source {path}");
    }
    assert_eq!(woven_after.len(), woven_before.len());
    for (path, (doc, _)) in &woven_after {
        let untouched = !touched_pages.contains(path);
        assert_eq!(
            Arc::ptr_eq(doc, &woven_before[path].0),
            untouched,
            "page {path}"
        );
        assert_eq!(
            Arc::ptr_eq(&store_after[path].1, &store_before[path].1),
            untouched
        );
        assert!(
            Arc::ptr_eq(doc, &store_after[path].1),
            "store serves {path}"
        );
    }

    // The retained epoch still serves each rewritten page as it was: the
    // old body and the old document.
    for page in &touched_pages {
        let (generation, doc, body) = &store_before[page];
        let old = store.get_at(page, *generation).expect("retained");
        assert_eq!(&old.body(), body);
        assert!(Arc::ptr_eq(old.resource().shared_document().unwrap(), doc));
        assert_ne!(&store.get(page).unwrap().body(), body);
    }
    // No document that was shared before the commit changed in place.
    for (path, (doc, text)) in sources_before.iter().chain(&woven_before) {
        assert_eq!(&doc.to_xml_string(), text, "{path} was mutated in place");
    }
}

/// The museum transform, with every painting's caption set in a `<p>` that
/// holds a `<b>`.
fn transform_with_captions() -> Document {
    let xml = MUSEUM_TRANSFORM.replacen(
        r#"<h1><value-of select="title"/></h1>"#,
        r#"<h1><value-of select="title"/></h1><p>Painting <b><value-of select="title"/></b></p>"#,
        1,
    );
    Document::parse(&xml).unwrap()
}

#[test]
fn advice_on_a_detached_join_point_fails_the_commit_with_a_typed_error() {
    // Aspect A replaces the content of every <p>; aspect B, applied
    // after it, puts advice before the <b> that replace detached.
    let (mut p, store) = publisher();
    p.commit().unwrap();
    let aspects = Document::parse(
        r#"<aspects>
  <aspect name="A" precedence="1">
    <rule pointcut='element("p")' position="replace-content"><em>replaced</em></rule>
  </aspect>
  <aspect name="B" precedence="2">
    <rule pointcut='element("b")' position="before"><i>note</i></rule>
  </aspect>
</aspects>"#,
    )
    .unwrap();
    p.stage(SourceEdit::put_document(
        TRANSFORM_PATH,
        transform_with_captions(),
    ))
    .stage(SourceEdit::put_document(ASPECTS_PATH, aspects));
    match p.commit() {
        Err(CoreError::Weave(WeaveError::DetachedJoinPoint { aspect, .. })) => {
            assert_eq!(aspect, "B")
        }
        other => panic!("expected a detached join point, got {other:?}"),
    }
    assert_eq!(store.generation(), 1, "nothing published");
    assert_eq!(p.staged_len(), 2, "the batch stays staged");
}

#[test]
fn an_organic_panic_is_attempted_exactly_once() {
    // An `<attribute>` at the top of a template has no element to land on.
    // Applying this transform used to panic inside the style layer; it is
    // now a typed template error. Either way it is deterministic, not a
    // transient fault, so the commit must not retry it. The armed plan
    // injects nothing; its zero-delay rule only counts the attempts.
    let (p, store) = publisher();
    let attempts = Arc::new(
        FaultPlan::new(1).rule(
            FaultRule::at(sites::WEAVE_PAGE, FaultKind::Slow(Duration::ZERO))
                .matching("publisher.commit"),
        ),
    );
    let mut p = p.with_faults(Arc::clone(&attempts));
    p.commit().unwrap();
    assert_eq!(attempts.fired(), 1);

    let transform = MUSEUM_TRANSFORM.replacen(
        r#"<template match="painting">"#,
        r#"<template match="painting"><attribute name="lost" value="x"/>"#,
        1,
    );
    p.stage(SourceEdit::put_document(
        TRANSFORM_PATH,
        Document::parse(&transform).unwrap(),
    ));
    match p.commit() {
        Err(CoreError::Template(TemplateError::InvalidTransform(message))) => {
            assert!(message.contains("lost"), "{message}")
        }
        other => panic!("expected a typed template error, got {other:?}"),
    }
    assert_eq!(attempts.fired(), 2, "the failing commit ran exactly once");
    assert_eq!(store.generation(), 1);
    assert_eq!(p.staged_len(), 1, "the batch stays staged");
}

#[test]
fn an_injected_panic_is_still_retried() {
    let (p, store) = publisher();
    let plan = Arc::new(
        FaultPlan::new(1).rule(
            FaultRule::at(sites::WEAVE_PAGE, FaultKind::Panic)
                .matching("publisher.commit")
                .times(1),
        ),
    );
    let mut p = p.with_faults(plan);
    let outcome = p.commit().unwrap();
    assert_eq!(outcome.retries, 1);
    assert_eq!(store.generation(), 1);
}
