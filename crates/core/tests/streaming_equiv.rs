//! Equivalence law: streaming weave ≡ DOM weave.
//!
//! The sequential DOM pipeline (`weave_separated_with`) is the executable
//! specification: every page is parsed into a tree, woven, and serialized.
//! The streaming pipeline (`weave_separated_streaming_with`) may only
//! differ in *how* — reader events to woven bytes, workers fanned out over
//! bounded channels, DOM fallback for pages whose spec needs the whole
//! document. For every site the two must serve **byte-identical** bodies
//! at every path, and fail with **identical errors** when they fail.
//!
//! The suite drives that law over random museum sites and random aspect
//! sets that deliberately mix streamable rules (static fragments, text,
//! page-generated content) with fallback-forcing ones (document-dependent
//! content, replace-content) — including page-gated fallbacks, so single
//! runs mix streamed and DOM-woven pages.

use navsep_aspect::{AdvicePosition, Aspect, Pointcut};
use navsep_core::museum::{generated_museum, museum_navigation};
use navsep_core::pipeline::{weave_separated_streaming_with, weave_separated_with};
use navsep_core::separated::separated_sources;
use navsep_core::spec::paper_spec;
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

/// How one random rule realizes content: the first three stream,
/// `Generated` forces the page through the DOM weaver (as does any
/// `ReplaceContent` rule, whose page is never streamable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ContentKind {
    Text,
    Fragment,
    PageGenerated,
    Generated,
}

fn content_strategy() -> impl Strategy<Value = ContentKind> {
    prop_oneof![
        3 => Just(ContentKind::Text),
        3 => Just(ContentKind::Fragment),
        3 => Just(ContentKind::PageGenerated),
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
                    ContentKind::PageGenerated => {
                        aspect.page_generated_rule(pointcut, position, |page| {
                            vec![ElementBuilder::new("pnav").text(page.to_string())]
                        })
                    }
                    ContentKind::Generated => aspect.generated_rule(pointcut, position, |jp| {
                        vec![ElementBuilder::new("gen").attr("at", jp.element_path())]
                    }),
                };
            }
            aspect
        })
        .collect()
}

/// The law itself: identical served bytes path for path, or identical
/// errors.
fn assert_equivalent(
    sources: &Site,
    aspects: &[Aspect],
    workers: usize,
) -> Result<(), TestCaseError> {
    let seq = weave_separated_with(sources, aspects);
    let streamed = weave_separated_streaming_with(sources, aspects, workers);
    match (seq, streamed) {
        (Ok(seq), Ok(streamed)) => {
            prop_assert_eq!(seq.site.len(), streamed.site.len());
            for (path, res) in seq.site.iter() {
                let got = streamed
                    .site
                    .get(path)
                    .ok_or_else(|| TestCaseError::fail(format!("streaming dropped {path}")))?;
                prop_assert_eq!(got.media_type(), res.media_type());
                prop_assert_eq!(
                    got.to_bytes(),
                    res.to_bytes(),
                    "served bytes differ at {} with {} workers",
                    path,
                    workers
                );
            }
            prop_assert_eq!(streamed.reports.len(), seq.reports.len());
            prop_assert_eq!(
                streamed.pages_streamed + streamed.pages_fallback,
                seq.reports.len()
            );
            for (s, d) in streamed.reports.iter().zip(&seq.reports) {
                prop_assert_eq!(&s.page, &d.page);
                prop_assert_eq!(s.join_points, d.join_points);
                prop_assert_eq!(s.applications(), d.applications());
            }
        }
        (Err(se), Err(ste)) => prop_assert_eq!(se.to_string(), ste.to_string()),
        (seq, streamed) => {
            return Err(TestCaseError::fail(format!(
                "outcomes diverged: sequential {:?} vs streaming {:?}",
                seq.map(|o| o.site.len()),
                streamed.map(|o| o.site.len()),
            )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random site × random mixed-streamability aspects × random worker
    /// count: streaming serves the same bytes (or fails the same way).
    #[test]
    fn streaming_weave_equals_dom_weave(
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
        workers in 1usize..5,
    ) {
        let store = generated_museum(painters, paintings, 2, seed);
        let sources =
            separated_sources(&store, &museum_navigation(), &paper_spec(access)).unwrap();
        let aspects = aspects_from(specs);
        assert_equivalent(&sources, &aspects, workers)?;
    }

    /// Page-gated document-dependent rules: the gated pages fall back, the
    /// rest stream, and the mixed site is still byte-identical.
    #[test]
    fn page_gated_fallback_mixes_with_streamed_pages(
        seed in 0u64..1000,
        position in position_strategy(),
        workers in 1usize..4,
    ) {
        let store = generated_museum(2, 3, 2, seed);
        let sources = separated_sources(
            &store,
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        let gated = Aspect::new("gated").generated_rule(
            Pointcut::Page("painter-*".to_string())
                .and(Pointcut::Element("body".to_string())),
            position,
            |jp| vec![ElementBuilder::new("gen").attr("at", jp.element_path())],
        );
        let aspects = vec![gated];
        // Painter pages must fall back, painting pages must stream.
        let streamed = weave_separated_streaming_with(&sources, &aspects, workers).unwrap();
        prop_assert!(streamed.pages_streamed > 0, "painting pages should stream");
        prop_assert!(streamed.pages_fallback > 0, "painter pages should fall back");
        assert_equivalent(&sources, &aspects, workers)?;
    }

    /// Replace-content parity, success side: it always forces the DOM
    /// fallback, and the fallback output is byte-identical to sequential.
    #[test]
    fn replace_content_falls_back_byte_identically(
        seed in 0u64..1000,
        workers in 1usize..4,
    ) {
        let store = generated_museum(2, 2, 2, seed);
        let sources = separated_sources(
            &store,
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        let replacer = vec![Aspect::new("rc").text_rule(
            Pointcut::Element("h1".to_string()),
            AdvicePosition::ReplaceContent,
            "retitled",
        )];
        let streamed = weave_separated_streaming_with(&sources, &replacer, workers).unwrap();
        prop_assert_eq!(streamed.pages_streamed, 0, "replace-content cannot stream");
        assert_equivalent(&sources, &replacer, workers)?;
    }

    /// Replace-content parity, error side: two equal-precedence aspects
    /// replacing the same element conflict, and the streaming pipeline
    /// reports the exact error the sequential one does.
    #[test]
    fn replace_conflicts_error_identically(
        seed in 0u64..1000,
        workers in 1usize..4,
    ) {
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
        prop_assert!(weave_separated_with(&sources, &aspects).is_err());
        assert_equivalent(&sources, &aspects, workers)?;
    }
}
