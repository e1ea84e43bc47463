//! Equivalence law: a [`Weave`] on 2 or 8 workers ≡ the same weave on 1.
//!
//! One worker weaves every page on the caller's thread, in page order; more
//! workers deal the pages round-robin to scoped threads. The fan-out may
//! only change *where* a page is woven. For every site and aspect set the
//! runs must serve **byte-identical** bodies at every path, report equal
//! per-page join-point and application counts, and fail with **identical
//! errors** when they fail.
//!
//! The suite drives that law over random museum sites and random aspect
//! sets mixing static fragments, text, page-path content and
//! document-dependent content at random positions, replace-content
//! included, so conflicts and detached join points are in the mix.

use navsep_aspect::{AdvicePosition, Aspect, Pointcut};
use navsep_core::museum::{generated_museum, museum_navigation};
use navsep_core::pipeline::{Weave, WovenOutput};
use navsep_core::separated::separated_sources;
use navsep_core::spec::paper_spec;
use navsep_core::CoreError;
use navsep_hypermodel::AccessStructureKind;
use navsep_web::Site;
use navsep_xml::ElementBuilder;
use proptest::prelude::*;
use proptest::TestCaseError;

/// Element names the museum transform actually emits, so pointcuts bite.
fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("body".to_string()),
        Just("h1".to_string()),
        Just("dl".to_string()),
        Just("dd".to_string()),
        Just("html".to_string()),
    ]
}

fn pointcut_strategy() -> impl Strategy<Value = Pointcut> {
    let leaf = prop_oneof![
        name_strategy().prop_map(Pointcut::Element),
        prop_oneof![
            Just("painting-*".to_string()),
            Just("painter-*".to_string()),
            Just("*.html".to_string()),
            Just("movement-*".to_string()),
        ]
        .prop_map(Pointcut::Page),
        Just(Pointcut::HasClass("painting".to_string())),
        Just(Pointcut::HasClass("facts".to_string())),
        Just(Pointcut::AttrExists("class".to_string())),
        Just(Pointcut::Root),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Pointcut::negate),
        ]
    })
}

fn position_strategy() -> impl Strategy<Value = AdvicePosition> {
    prop_oneof![
        Just(AdvicePosition::Append),
        Just(AdvicePosition::Prepend),
        Just(AdvicePosition::Before),
        Just(AdvicePosition::After),
        Just(AdvicePosition::ReplaceContent),
    ]
}

/// How one random rule realizes content: fixed text or fragment, content
/// computed from the page path alone (like the navigation aspect), or
/// content computed from the join point's place in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ContentKind {
    Text,
    Fragment,
    PagePath,
    Generated,
}

fn content_strategy() -> impl Strategy<Value = ContentKind> {
    prop_oneof![
        3 => Just(ContentKind::Text),
        3 => Just(ContentKind::Fragment),
        3 => Just(ContentKind::PagePath),
        2 => Just(ContentKind::Generated),
    ]
}

type RuleSpec = (Pointcut, AdvicePosition, ContentKind);

fn aspects_from(specs: Vec<(i32, Vec<RuleSpec>)>) -> Vec<Aspect> {
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (precedence, rules))| {
            let mut aspect = Aspect::new(format!("x{i}")).with_precedence(precedence);
            for (ri, (pointcut, position, kind)) in rules.into_iter().enumerate() {
                aspect = match kind {
                    ContentKind::Text => aspect.text_rule(pointcut, position, format!("t{ri}")),
                    ContentKind::Fragment => aspect.rule(
                        pointcut,
                        position,
                        vec![ElementBuilder::new("frag").attr("r", ri.to_string())],
                    ),
                    ContentKind::PagePath => aspect.generated_rule(pointcut, position, |jp| {
                        vec![ElementBuilder::new("pnav").text(jp.page.to_string())]
                    }),
                    ContentKind::Generated => aspect.generated_rule(pointcut, position, |jp| {
                        vec![ElementBuilder::new("gen").attr("at", jp.element_path())]
                    }),
                };
            }
            aspect
        })
        .collect()
}

fn weave(sources: &Site, aspects: &[Aspect], workers: usize) -> Result<WovenOutput, CoreError> {
    Weave {
        workers,
        extra_aspects: aspects,
        ..Weave::default()
    }
    .run(sources)
}

/// The law itself: identical served bytes and report counts path for path,
/// or identical errors.
fn assert_equivalent(sources: &Site, aspects: &[Aspect]) -> Result<(), TestCaseError> {
    let one = weave(sources, aspects, 1);
    for workers in [2, 8] {
        match (&one, weave(sources, aspects, workers)) {
            (Ok(one), Ok(many)) => {
                prop_assert_eq!(one.site.len(), many.site.len());
                for (path, res) in one.site.iter() {
                    let got = many.site.get(path).ok_or_else(|| {
                        TestCaseError::fail(format!("{workers} workers dropped {path}"))
                    })?;
                    prop_assert_eq!(got.media_type(), res.media_type());
                    prop_assert_eq!(
                        got.to_bytes(),
                        res.to_bytes(),
                        "served bytes differ at {} with {} workers",
                        path,
                        workers
                    );
                }
                prop_assert_eq!(one.reports.len(), many.reports.len());
                for (a, b) in one.reports.iter().zip(&many.reports) {
                    prop_assert_eq!(&a.page, &b.page);
                    prop_assert_eq!(a.join_points, b.join_points);
                    prop_assert_eq!(a.applications(), b.applications());
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (one, many) => {
                return Err(TestCaseError::fail(format!(
                    "outcomes diverged: 1 worker {:?} vs {} workers {:?}",
                    one.as_ref().map(|o| o.site.len()),
                    workers,
                    many.map(|o| o.site.len()),
                )))
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random site × random aspect set: 2 and 8 workers serve the same
    /// bytes as 1 (or fail the same way).
    #[test]
    fn weave_on_many_workers_equals_one(
        painters in 1usize..3,
        paintings in 1usize..4,
        seed in 0u64..1000,
        access in prop_oneof![
            Just(AccessStructureKind::Index),
            Just(AccessStructureKind::IndexedGuidedTour),
        ],
        specs in proptest::collection::vec(
            (
                -2i32..2,
                proptest::collection::vec(
                    (pointcut_strategy(), position_strategy(), content_strategy()),
                    1..3,
                ),
            ),
            0..3,
        ),
    ) {
        let store = generated_museum(painters, paintings, 2, seed);
        let sources =
            separated_sources(&store, &museum_navigation(), &paper_spec(access)).unwrap();
        let aspects = aspects_from(specs);
        assert_equivalent(&sources, &aspects)?;
    }

    /// Replace-content conflicts: two equal-precedence aspects replacing
    /// the same element conflict on every page, and every worker count
    /// reports the exact error one worker does.
    #[test]
    fn replace_conflicts_error_identically(seed in 0u64..1000) {
        let store = generated_museum(2, 2, 2, seed);
        let sources = separated_sources(
            &store,
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        let clash = |name: &str, text: &str| {
            Aspect::new(name).text_rule(
                Pointcut::Element("h1".to_string()),
                AdvicePosition::ReplaceContent,
                text,
            )
        };
        let aspects = vec![clash("rc1", "one"), clash("rc2", "two")];
        prop_assert!(weave(&sources, &aspects, 1).is_err());
        assert_equivalent(&sources, &aspects)?;
    }
}
