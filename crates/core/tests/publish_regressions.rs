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
//! * **Memoized locator validation.** Over a seeded edit script that
//!   deletes, renames and restores data documents, swaps `links.xml` and
//!   removes the id a fragment locator names, every commit publishes what a
//!   fresh weave of the same sources produces, or fails with its error; a
//!   data edit re-resolves only the hrefs that target the edited document.

use navsep_aspect::WeaveError;
use navsep_core::fault::{sites, FaultKind, FaultPlan, FaultRule};
use navsep_core::layout::{data_to_page, ASPECTS_PATH, LINKBASE_PATH, TRANSFORM_PATH};
use navsep_core::museum::{generated_museum, museum_navigation, paper_museum};
use navsep_core::pipeline::weave_separated;
use navsep_core::publish::{SitePublisher, SourceEdit};
use navsep_core::separated::{separated_sources, MUSEUM_TRANSFORM};
use navsep_core::spec::paper_spec;
use navsep_core::CoreError;
use navsep_hypermodel::{AccessStructureKind, InstanceStore};
use navsep_style::TemplateError;
use navsep_web::{ShardedSiteStore, Site};
use navsep_xlink::{Endpoint, Linkbase};
use navsep_xml::Document;
use std::collections::{BTreeMap, BTreeSet};
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
    SourceEdit::put_document(path, retitled(path, title))
}

/// The painting at `path` (id kept) under a new title.
fn retitled(path: &str, title: &str) -> Document {
    let id = path.trim_end_matches(".xml");
    Document::parse(&format!(
        r#"<painting id="{id}"><title>{title}</title><year>1913</year></painting>"#
    ))
    .unwrap()
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

/// The separated museum's `links.xml` for `access`.
fn links_for(store: &InstanceStore, access: AccessStructureKind) -> Document {
    let sources = separated_sources(store, &museum_navigation(), &paper_spec(access)).unwrap();
    sources
        .get(LINKBASE_PATH)
        .unwrap()
        .document()
        .unwrap()
        .clone()
}

/// How many distinct remote hrefs of `links` look up each document.
fn hrefs_per_document(links: &Document) -> BTreeMap<String, usize> {
    let linkbase = Linkbase::from_document(links, LINKBASE_PATH).unwrap();
    let hrefs: BTreeSet<_> = linkbase
        .expanded_traversals()
        .unwrap()
        .iter()
        .flat_map(|t| [&t.from, &t.to])
        .filter_map(|ep| match ep {
            Endpoint::Remote(href) => Some(href.clone()),
            Endpoint::Local(_) => None,
        })
        .collect();
    let mut per_document = BTreeMap::new();
    for href in hrefs {
        *per_document.entry(href.document().to_string()).or_default() += 1;
    }
    per_document
}

/// SplitMix64: the script's only source of randomness.
struct Seeded(u64);

impl Seeded {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// The paintings the script deletes, renames or strips of their id; random
/// retitles leave them alone, so which commits fail is fixed.
const SCRIPTED: [&str; 3] = ["painting-3.xml", "painting-5.xml", "painting-7.xml"];

/// One step of the script: source edits staged together, then a commit.
enum Step {
    /// Retitle this many random paintings outside [`SCRIPTED`] (distinct,
    /// ids kept).
    Retitle(usize),
    Put(&'static str, Document),
    Remove(&'static str),
    /// Move a document to a new path, then (on a later step) back.
    Rename(&'static str, &'static str),
    Links(Document),
}

/// Drives one publisher through `script`, checking every commit against a
/// fresh `weave_separated` of the sources it committed (the staged batch
/// applied to the last committed sources). Returns how many commits failed
/// and at how many the re-resolved href count was pinned.
fn run_script(seed: u64, sources: Site, script: Vec<Step>) -> (usize, usize) {
    let paintings: Vec<String> = sources
        .paths()
        .filter(|path| path.starts_with("painting-") && !SCRIPTED.contains(path))
        .map(str::to_string)
        .collect();
    let (mut failures, mut pinned) = (0, 0);
    let store = Arc::new(ShardedSiteStore::new(4));
    let mut p = SitePublisher::new(sources.clone(), Arc::clone(&store));
    let mut pending = sources;
    let mut rng = Seeded(seed);
    let mut last_ok = false;
    for (n, step) in script.into_iter().enumerate() {
        let mut expected_resolved = None;
        let put = |p: &mut SitePublisher, pending: &mut Site, path: &str, doc: Document| {
            pending.put_document(path, doc.clone());
            p.stage(SourceEdit::put_document(path, doc));
        };
        match step {
            Step::Retitle(k) => {
                let links = pending.get(LINKBASE_PATH).unwrap().document().unwrap();
                let per_document = hrefs_per_document(links);
                let mut chosen = BTreeSet::new();
                while chosen.len() < k {
                    chosen.insert(paintings[rng.below(paintings.len())].clone());
                }
                // One href per painting: a k-painting edit re-resolves k.
                assert!(chosen.iter().all(|path| per_document[path] == 1));
                expected_resolved = Some(k);
                for path in &chosen {
                    let doc = retitled(path, &format!("Seed {seed} step {n}"));
                    put(&mut p, &mut pending, path, doc);
                }
            }
            Step::Put(path, doc) => put(&mut p, &mut pending, path, doc),
            Step::Remove(path) => {
                pending.remove(path);
                p.stage(SourceEdit::remove(path));
            }
            Step::Rename(from, to) => {
                let doc = pending.remove(from).unwrap().document().unwrap().clone();
                p.stage(SourceEdit::remove(from));
                put(&mut p, &mut pending, to, doc);
            }
            Step::Links(doc) => {
                let hrefs = hrefs_per_document(&doc).values().sum::<usize>();
                expected_resolved = Some(hrefs);
                put(&mut p, &mut pending, LINKBASE_PATH, doc);
            }
        }
        let resolved_before = p.cache().locators_resolved();
        let committed = p.commit();
        let resolved = p.cache().locators_resolved() - resolved_before;
        match (committed, weave_separated(&pending)) {
            (Ok(_), Ok(fresh)) => {
                let served = store.to_site();
                let paths = |site: &Site| site.paths().map(str::to_string).collect::<Vec<_>>();
                assert_eq!(paths(&served), paths(&fresh.site), "seed {seed} step {n}");
                for (path, res) in fresh.site.iter() {
                    assert_eq!(
                        served.get(path).unwrap().to_bytes(),
                        res.to_bytes(),
                        "seed {seed} step {n}: {path}"
                    );
                }
                // Only a commit that follows a fully validated one knows
                // exactly which hrefs are stale.
                if let (Some(expected), true) = (expected_resolved, last_ok) {
                    assert_eq!(resolved, expected as u64, "seed {seed} step {n}");
                    pinned += 1;
                }
                last_ok = true;
            }
            (Err(got), Err(want)) => {
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "seed {seed} step {n}"
                );
                assert!(p.staged_len() > 0, "a failed batch stays staged");
                failures += 1;
                last_ok = false;
            }
            (got, want) => panic!(
                "seed {seed} step {n}: commit gave {:?}, a fresh weave {:?}",
                got.map(|o| o.generation),
                want.map(|w| w.site.len())
            ),
        }
    }
    (failures, pinned)
}

#[test]
fn every_commit_publishes_what_a_fresh_weave_of_its_sources_does() {
    let museum = generated_museum(3, 4, 2, 7);
    let index = links_for(&museum, AccessStructureKind::Index);
    let tour = links_for(&museum, AccessStructureKind::IndexedGuidedTour);
    // The tour again, with one locator addressing its painting by id.
    let plain = r#"xlink:href="painting-3.xml""#;
    let tour_xml = tour.to_xml_string();
    assert!(tour_xml.contains(plain));
    let by_id = Document::parse(&tour_xml.replacen(
        plain,
        r#"xlink:href="painting-3.xml#xpointer(//*[@id='painting-3'])""#,
        1,
    ))
    .unwrap();
    let sources = separated_sources(
        &museum,
        &museum_navigation(),
        &paper_spec(AccessStructureKind::Index),
    )
    .unwrap();
    let original = |path: &str| sources.get(path).unwrap().document().unwrap().clone();
    let no_id =
        Document::parse(r#"<painting><title>Unnamed</title><year>1913</year></painting>"#).unwrap();

    for seed in [1, 2, 3] {
        let script = vec![
            // The first commit publishes the sources as they are.
            Step::Retitle(0),
            Step::Retitle(1),
            Step::Remove("painting-5.xml"),
            Step::Put("painting-5.xml", original("painting-5.xml")),
            Step::Retitle(1),
            Step::Rename("painting-7.xml", "painting-70.xml"),
            Step::Retitle(2),
            Step::Rename("painting-70.xml", "painting-7.xml"),
            Step::Retitle(1),
            Step::Links(tour.clone()),
            Step::Retitle(3),
            Step::Links(by_id.clone()),
            Step::Retitle(1),
            Step::Put("painting-3.xml", no_id.clone()),
            Step::Retitle(1),
            Step::Put("painting-3.xml", original("painting-3.xml")),
            Step::Retitle(2),
            Step::Links(index.clone()),
            Step::Retitle(1),
        ];
        // Fails: painting-5 gone; painting-7 renamed (and the retitle
        // staged on top); painting-3 without the id (and the retitle).
        // Pinned: every retitle and links swap after a successful commit.
        assert_eq!(run_script(seed, sources.clone(), script), (5, 10));
    }
}
