//! Equivalence law: compiled weaving ≡ naive weaving.
//!
//! `Weaver::weave_page_naive` is the executable specification: every rule
//! tested against every join point. The compiled path
//! (`Weaver::compile().weave_page(..)`) resolves candidate sets from the
//! document index first and may only differ in speed — the woven document
//! must be byte-identical, the [`WeaveReport`] event log identical, and
//! errors (replace conflicts, empty pages) identical. This suite checks that
//! law over random documents, random pointcut trees, and random rule sets.

use navsep_aspect::{AdvicePosition, Aspect, Pointcut, Weaver};
use navsep_xml::{Document, ElementBuilder};
use proptest::prelude::*;
use proptest::TestCaseError;

fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("painting".to_string()),
        Just("room".to_string()),
    ]
}

/// Random trees with id / name / class attributes so every index bucket —
/// and every pointcut primitive — has something to bite on.
fn tree_strategy() -> impl Strategy<Value = ElementBuilder> {
    let attrs = || {
        (
            proptest::option::of("i[0-5]"),
            proptest::option::of("n[0-2]"),
            proptest::option::of(prop_oneof![
                Just("star".to_string()),
                Just("star card".to_string()),
                Just("card".to_string()),
            ]),
        )
    };
    let build = |n: String, (id, name, class): (Option<String>, Option<String>, Option<String>)| {
        let mut b = ElementBuilder::new(n.as_str());
        if let Some(id) = id {
            b = b.attr("id", id);
        }
        if let Some(name) = name {
            b = b.attr("name", name);
        }
        if let Some(class) = class {
            b = b.attr("class", class);
        }
        b
    };
    let leaf = (name_strategy(), attrs()).prop_map(move |(n, a)| build(n, a));
    leaf.prop_recursive(4, 40, 4, move |inner| {
        (
            name_strategy(),
            attrs(),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(move |(n, a, children)| build(n, a).children(children))
    })
}

/// Random pointcut trees over every primitive, including index-narrowable
/// forms (element / id / attr-equals / root / page) and forms that must
/// degrade to a full scan (class / attr-exists / negation / always).
fn pointcut_strategy() -> impl Strategy<Value = Pointcut> {
    let leaf = prop_oneof![
        name_strategy().prop_map(Pointcut::Element),
        "i[0-5]".prop_map(Pointcut::Id),
        "i[0-5]".prop_map(|v| Pointcut::AttrEquals("id".to_string(), v)),
        "n[0-2]".prop_map(|v| Pointcut::AttrEquals("name".to_string(), v)),
        Just(Pointcut::HasClass("star".to_string())),
        Just(Pointcut::AttrExists("id".to_string())),
        prop_oneof![
            Just("p-*".to_string()),
            Just("q-*".to_string()),
            Just("*".to_string()),
            Just("p-1.html".to_string()),
        ]
        .prop_map(Pointcut::Page),
        Just(Pointcut::Root),
        Just(Pointcut::Always),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
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

/// One rule: pointcut, position, and whether the content is static or
/// generated per join point (`true` = generated).
type RuleSpec = (Pointcut, AdvicePosition, bool);

fn weaver_from(specs: Vec<(i32, Vec<RuleSpec>)>) -> Weaver {
    let mut weaver = Weaver::new();
    for (i, (precedence, rules)) in specs.into_iter().enumerate() {
        let mut aspect = Aspect::new(format!("a{i}")).with_precedence(precedence);
        for (ri, (pointcut, position, generated)) in rules.into_iter().enumerate() {
            aspect = if generated {
                aspect.generated_rule(pointcut, position, move |jp| {
                    vec![ElementBuilder::new("gen").attr("at", jp.element_path())]
                })
            } else {
                aspect.text_rule(pointcut, position, format!("r{ri}"))
            };
        }
        weaver = weaver.aspect(aspect);
    }
    weaver
}

fn assert_equivalent(weaver: &Weaver, page: &str, doc: &Document) -> Result<(), TestCaseError> {
    let naive = weaver.weave_page_naive(page, doc);
    let fast = weaver.compile().weave_page(page, doc);
    match (naive, fast) {
        (Ok((ndoc, nrep)), Ok((fdoc, frep))) => {
            prop_assert_eq!(ndoc.to_xml_string(), fdoc.to_xml_string());
            prop_assert_eq!(nrep.events, frep.events);
            prop_assert_eq!(nrep.join_points, frep.join_points);
            prop_assert_eq!(nrep.page, frep.page);
        }
        (Err(ne), Err(fe)) => prop_assert_eq!(ne.to_string(), fe.to_string()),
        (naive, fast) => {
            return Err(TestCaseError::fail(format!(
                "outcomes diverged: naive {naive:?} vs compiled {fast:?}"
            )))
        }
    }
    Ok(())
}

proptest! {
    /// The headline law: for any document, page path, and rule set, compiled
    /// weaving produces a byte-identical document and an identical report.
    #[test]
    fn compiled_weave_equals_naive(
        tree in tree_strategy(),
        specs in proptest::collection::vec(
            (
                -2i32..2,
                proptest::collection::vec(
                    (
                        pointcut_strategy(),
                        position_strategy(),
                        (0usize..2).prop_map(|b| b == 1),
                    ),
                    1..3,
                ),
            ),
            1..4,
        ),
        page_pick in 0usize..3,
    ) {
        let doc = tree.build_document();
        let page = ["p-1.html", "q-2.html", "other.css"][page_pick];
        let weaver = weaver_from(specs);
        assert_equivalent(&weaver, page, &doc)?;
    }

    /// Replace-content parity: conflicts (equal precedence, different
    /// aspects, same element) must surface as the same error at the same
    /// point, and successful replacements must produce identical bytes.
    #[test]
    fn replace_content_parity(
        tree in tree_strategy(),
        specs in proptest::collection::vec(
            (-1i32..1, proptest::collection::vec(pointcut_strategy(), 1..2)),
            1..4,
        ),
    ) {
        let doc = tree.build_document();
        let specs: Vec<(i32, Vec<RuleSpec>)> = specs
            .into_iter()
            .map(|(prec, pcs)| {
                (
                    prec,
                    pcs.into_iter()
                        .map(|pc| (pc, AdvicePosition::ReplaceContent, false))
                        .collect(),
                )
            })
            .collect();
        let weaver = weaver_from(specs);
        assert_equivalent(&weaver, "p-1.html", &doc)?;
    }
}
