//! The incremental-publish laws: for any edit script, a store fed the
//! script step by step serves exactly what a store built from scratch from
//! the step's site serves, and a retained generation replays the byte-exact
//! bodies it originally served.
//!
//! The store-level property drives one random edit script through one
//! store (diff, reuse, skip) and, after every step, compares it with
//! `ShardedSiteStore::from_site` on that step's site (every page rendered
//! onto an empty predecessor). `incremental ≡ from scratch` means:
//!
//! * every path is present on both stores or on neither;
//! * the served body of every path is identical, and so is `len`;
//! * a path the step changed is stamped with the step's generation, and an
//!   unchanged one keeps a stamp no newer than it — the generation that
//!   last changed it, which is the precision the conditional-navigation
//!   check builds on.
//!
//! A publisher-level end-to-end test replays a data-edit script through
//! `SitePublisher` (which rides the incremental path) against from-scratch
//! weaves of the same sources.

use navsep_web::{ShardedSiteStore, Site};
use proptest::prelude::*;
use std::collections::BTreeMap;

const PATHS: usize = 6;

fn path_of(slot: usize) -> String {
    format!("page-{slot}.txt")
}

/// One scripted step: for each slot, `None` removes the page, `Some(v)`
/// sets its content to stamp `v`.
type Step = Vec<Option<u8>>;

fn site_of(step: &Step) -> Site {
    let mut site = Site::new();
    for (slot, state) in step.iter().enumerate() {
        if let Some(v) = state {
            site.put_text(path_of(slot), format!("content {v} of {slot}"));
        }
    }
    site
}

fn script_strategy() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::option::of(0u8..4), PATHS..PATHS + 1),
        1..8,
    )
}

proptest! {
    /// The law: `incremental ≡ from scratch` over random edit scripts —
    /// identical presence, served bodies and sizes, step by step, with
    /// every stamp naming the generation that last changed the path.
    #[test]
    fn incremental_publish_equals_from_scratch(script in script_strategy()) {
        let incremental = ShardedSiteStore::new(4);
        let mut previous: Step = vec![None; PATHS];
        for step in script {
            let site = site_of(&step);
            let stats = incremental.publish_incremental(&site);
            let scratch = ShardedSiteStore::from_site(4, &site);
            prop_assert_eq!(incremental.generation(), stats.generation);
            prop_assert_eq!(scratch.len(), incremental.len());
            for slot in 0..PATHS {
                let path = path_of(slot);
                let a = scratch.get(&path);
                let b = incremental.get(&path);
                prop_assert_eq!(a.is_some(), b.is_some(), "presence of {}", &path);
                if let (Some(a), Some(b)) = (a, b) {
                    prop_assert_eq!(a.body(), b.body(), "served body of {}", &path);
                    // A changed path carries this step's stamp; an
                    // unchanged one may trail it, but never lead.
                    if previous[slot] != step[slot] {
                        prop_assert_eq!(b.generation(), stats.generation);
                    } else {
                        prop_assert!(b.generation() <= stats.generation);
                    }
                }
            }
            previous = step;
        }
    }

    /// Retention replay: whatever generation stamped a read, `get_at`
    /// with that stamp returns the byte-identical body for as long as the
    /// epoch is retained.
    #[test]
    fn retained_generations_replay_byte_identically(script in script_strategy()) {
        let store = ShardedSiteStore::new(4);
        // (path, generation) -> body bytes, as first observed.
        let mut observed: BTreeMap<(String, u64), bytes::Bytes> = BTreeMap::new();
        for step in &script {
            store.publish_incremental(&site_of(step));
            for slot in 0..PATHS {
                let path = path_of(slot);
                if let Some(read) = store.get(&path) {
                    observed
                        .entry((path, read.generation()))
                        .or_insert_with(|| read.body());
                }
            }
        }
        for ((path, generation), body) in &observed {
            if let Some(replayed) = store.get_at(path, *generation) {
                prop_assert_eq!(
                    &replayed.body(),
                    body,
                    "replay of {} at generation {}",
                    path,
                    generation
                );
            }
            // A miss is legal only past the retention horizon — i.e. the
            // generation is genuinely no longer in the ring.
            else {
                prop_assert!(
                    !store.retained_generations().iter().any(|&g| g == *generation)
                        || store.get(path).is_none()
                        || store.get(path).unwrap().generation() != *generation,
                    "{} at retained generation {} must be servable",
                    path,
                    generation
                );
            }
        }
    }
}

mod publisher_end_to_end {
    use navsep_core::museum::{museum_navigation, paper_museum};
    use navsep_core::publish::{SitePublisher, SourceEdit};
    use navsep_core::separated::separated_sources;
    use navsep_core::spec::paper_spec;
    use navsep_core::{assert_site_equivalent, weave_separated};
    use navsep_hypermodel::AccessStructureKind;
    use navsep_web::ShardedSiteStore;
    use navsep_xml::Document;
    use std::sync::Arc;

    fn painting(slug: &str, title: &str) -> Document {
        Document::parse(&format!(
            r#"<painting id="{slug}"><title>{title}</title><year>1907</year></painting>"#
        ))
        .unwrap()
    }

    /// The same data-edit script, committed incrementally and woven from
    /// scratch: the served sites must be equivalent after every commit.
    #[test]
    fn incremental_commits_match_full_weaves_step_by_step() {
        let sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let store = Arc::new(ShardedSiteStore::new(8));
        let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
        publisher.commit().unwrap();

        let script: &[&[SourceEdit]] = &[
            &[SourceEdit::put_document(
                "guitar.xml",
                painting("guitar", "Guitar, step 1"),
            )],
            &[
                SourceEdit::put_document("avignon.xml", painting("avignon", "Avignon, step 2")),
                SourceEdit::put_raw("museum.css", "/* step 2 */"),
                SourceEdit::put_raw("theme.css", "h1 { color: teal }"),
            ],
            &[
                SourceEdit::put_document("guitar.xml", painting("guitar", "Guitar, step 3")),
                SourceEdit::put_raw("notes.txt", "step 3"),
            ],
            &[SourceEdit::remove("notes.txt")],
        ];
        for (i, batch) in script.iter().enumerate() {
            for edit in *batch {
                publisher.stage(edit.clone());
            }
            let outcome = publisher.commit().unwrap();
            assert!(
                outcome.pages_rewoven <= batch.len(),
                "step {i}: O(K) reweave, got {outcome:?}"
            );
            let full = weave_separated(publisher.sources()).unwrap();
            let served = store.to_site();
            assert_site_equivalent(&full.site, &served).unwrap_or_else(|e| panic!("step {i}: {e}"));
            // Media types must agree between the paths too — a stylesheet
            // added by an incremental commit stays text/css on a later
            // full weave.
            for (path, res) in served.iter() {
                assert_eq!(
                    Some(res.media_type()),
                    full.site.get(path).map(|r| r.media_type()),
                    "step {i}: media type of {path}"
                );
            }
        }
        assert_eq!(store.generation(), script.len() as u64 + 1);
        use navsep_web::MediaType;
        assert_eq!(
            store.get("theme.css").unwrap().resource().media_type(),
            MediaType::Css
        );
    }
}
