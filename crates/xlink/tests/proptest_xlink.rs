//! Property-based tests for XLink arc expansion and href resolution.

use navsep_xlink::{
    Endpoint, ExtendedLink, Href, Linkbase, ResolutionMemo, ResolvedTraversal, Resolver, XLinkError,
};
use navsep_xml::Document;
use proptest::prelude::*;
use std::collections::BTreeMap;

const XLINK: &str = "xmlns:xlink=\"http://www.w3.org/1999/xlink\"";

/// Builds an extended link with `groups[i]` locators labeled `g{i}`, plus
/// one arc per (from, to) pair given as indices.
fn link_doc(groups: &[usize], arcs: &[(usize, usize)]) -> Document {
    let mut body = String::new();
    for (gi, &count) in groups.iter().enumerate() {
        for k in 0..count {
            body.push_str(&format!(
                "<l xlink:type=\"locator\" xlink:label=\"g{gi}\" xlink:href=\"doc-{gi}-{k}.xml\"/>\n"
            ));
        }
    }
    for &(f, t) in arcs {
        body.push_str(&format!(
            "<a xlink:type=\"arc\" xlink:from=\"g{f}\" xlink:to=\"g{t}\"/>\n"
        ));
    }
    Document::parse(&format!(
        "<links {XLINK} xlink:type=\"extended\">\n{body}</links>"
    ))
    .expect("generated link is well-formed")
}

proptest! {
    /// Arc expansion count is exactly Σ |from group| × |to group|.
    #[test]
    fn expansion_count_is_group_product(
        groups in proptest::collection::vec(1usize..5, 1..4),
        arc_pairs in proptest::collection::vec((0usize..4, 0usize..4), 0..6),
    ) {
        let arcs: Vec<(usize, usize)> = arc_pairs
            .into_iter()
            .map(|(f, t)| (f % groups.len(), t % groups.len()))
            .collect();
        let doc = link_doc(&groups, &arcs);
        let link = ExtendedLink::parse(&doc, doc.root_element().unwrap()).unwrap();
        let expected: usize = arcs.iter().map(|&(f, t)| groups[f] * groups[t]).sum();
        prop_assert_eq!(link.traversals().unwrap().len(), expected);
    }

    /// An omitted from/to expands over every label.
    #[test]
    fn wildcard_arc_expands_over_all(groups in proptest::collection::vec(1usize..4, 1..4)) {
        let doc = {
            let mut body = String::new();
            for (gi, &count) in groups.iter().enumerate() {
                for k in 0..count {
                    body.push_str(&format!(
                        "<l xlink:type=\"locator\" xlink:label=\"g{gi}\" xlink:href=\"d{gi}-{k}.xml\"/>"
                    ));
                }
            }
            body.push_str("<a xlink:type=\"arc\"/>");
            Document::parse(&format!(
                "<links {XLINK} xlink:type=\"extended\">{body}</links>"
            ))
            .unwrap()
        };
        let link = ExtendedLink::parse(&doc, doc.root_element().unwrap()).unwrap();
        let total: usize = groups.iter().sum();
        prop_assert_eq!(link.traversals().unwrap().len(), total * total);
    }

    /// Href display/parse round trip.
    #[test]
    fn href_round_trips(doc_part in "[a-z]{1,8}(\\.xml)?", frag in proptest::option::of("[a-z]{1,8}")) {
        let text = match &frag {
            Some(f) => format!("{doc_part}#{f}"),
            None => doc_part.clone(),
        };
        let href: Href = text.parse().unwrap();
        prop_assert_eq!(href.to_string(), text);
    }

    /// Resolution against a base is idempotent: resolving an already
    /// resolved href against the same base changes nothing more.
    #[test]
    fn resolution_is_idempotent(
        base_dirs in proptest::collection::vec("[a-z]{1,4}", 0..3),
        ups in 0usize..3,
        target in "[a-z]{1,6}",
    ) {
        let base = if base_dirs.is_empty() {
            "base.xml".to_string()
        } else {
            format!("{}/base.xml", base_dirs.join("/"))
        };
        let rel = format!("{}{}.xml", "../".repeat(ups), target);
        let href: Href = rel.parse().unwrap();
        let once = href.resolve_against(&base);
        let twice = once.resolve_against(&base);
        // A resolved path with no leading ../ segments is a fixed point when
        // it no longer escapes the base directory.
        if !once.document().starts_with("..") {
            let redo: Href = once.document().parse().unwrap();
            let expected = redo.resolve_against(&base);
            prop_assert_eq!(twice.document(), expected.document());
        }
    }

    /// A linkbase built from any set of extended links reports referenced
    /// documents without duplicates.
    #[test]
    fn referenced_documents_unique(groups in proptest::collection::vec(1usize..4, 1..3)) {
        let doc = link_doc(&groups, &[(0, 0)]);
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        let docs = lb.referenced_documents().unwrap();
        let mut dedup = docs.clone();
        dedup.dedup();
        prop_assert_eq!(docs.len(), {
            let mut sorted = dedup.clone();
            sorted.sort();
            sorted.dedup();
            sorted.len()
        });
    }
}

/// Hrefs the random linkbases draw from: whole documents, fragments that
/// select (`i0`, `i1`, `i2`) or select nothing (`i3`), a dangling document,
/// same-document references and relative forms that resolve to `d2.xml`.
const HREFS: [&str; 10] = [
    "d0.xml",
    "d0.xml#i0",
    "d0.xml#i3",
    "d1.xml",
    "d1.xml#i1",
    "ghost.xml",
    "ghost.xml#i0",
    "#i2",
    "sub/../d2.xml#i2",
    "./d2.xml",
];

/// One extended link: locators `(label, href)`, local resources `(label)`,
/// arcs `(from, to, titled)`. Labels `l0..l3` may be defined; arcs may
/// also name `l4`, which never is, so expansion can fail.
type LinkSpec = (
    Vec<(usize, usize)>,
    Vec<usize>,
    Vec<(Option<usize>, Option<usize>, bool)>,
);

fn link_spec() -> impl Strategy<Value = LinkSpec> {
    (
        proptest::collection::vec((0usize..4, 0usize..HREFS.len()), 0..6),
        proptest::collection::vec(0usize..4, 0..2),
        proptest::collection::vec(
            (
                proptest::option::of(0usize..5),
                proptest::option::of(0usize..5),
                (0usize..2).prop_map(|b| b == 1),
            ),
            0..4,
        ),
    )
}

fn linkbase_doc(links: &[LinkSpec]) -> Document {
    let mut body = String::from("<note id=\"i2\"/>\n");
    for (locators, resources, arcs) in links {
        body.push_str("<link xlink:type=\"extended\">\n");
        for (n, &(label, href)) in locators.iter().enumerate() {
            body.push_str(&format!(
                "<loc xlink:type=\"locator\" xlink:label=\"l{label}\" xlink:href=\"{}\" xlink:title=\"t{n}\"/>\n",
                HREFS[href]
            ));
        }
        for &label in resources {
            body.push_str(&format!(
                "<res xlink:type=\"resource\" xlink:label=\"l{label}\">here</res>\n"
            ));
        }
        for &(from, to, titled) in arcs {
            let mut arc = String::from("<arc xlink:type=\"arc\" xlink:arcrole=\"urn:nav:next\"");
            if let Some(f) = from {
                arc.push_str(&format!(" xlink:from=\"l{f}\""));
            }
            if let Some(t) = to {
                arc.push_str(&format!(" xlink:to=\"l{t}\""));
            }
            if titled {
                arc.push_str(" xlink:title=\"arc\"");
            }
            body.push_str(&arc);
            body.push_str("/>\n");
        }
        body.push_str("</link>\n");
    }
    Document::parse(&format!("<linkbase {XLINK}>\n{body}</linkbase>"))
        .expect("generated linkbase is well-formed")
}

/// The documents `d0`–`d2`, each present or not, plus the linkbase itself
/// when `with_linkbase` (so same-document references can resolve).
fn provider(
    present: [bool; 3],
    links: &Document,
    with_linkbase: bool,
) -> BTreeMap<String, Document> {
    provider_state(present.map(|p| p.then_some(0)), links, with_linkbase)
}

/// Like [`provider`], with each of `d0`–`d2` absent (`None`) or in one of
/// two body variants. Variant 1 drops the id that variant 0 is there to
/// supply (`d0.xml#i0`, `d1.xml#i1`, `d2.xml#i2`), so a fragment that
/// selected something stops selecting it.
fn provider_state(
    state: [Option<usize>; 3],
    links: &Document,
    with_linkbase: bool,
) -> BTreeMap<String, Document> {
    let bodies = [
        [
            r#"<doc><e id="i0"/><e id="i1"/></doc>"#,
            r#"<doc><e id="i1"/></doc>"#,
        ],
        [
            r#"<doc><e id="i1"/><e id="i2"/></doc>"#,
            r#"<doc><e id="i2"/></doc>"#,
        ],
        [r#"<doc><e id="i2"/></doc>"#, r#"<doc><e id="i0"/></doc>"#],
    ];
    let mut docs = BTreeMap::new();
    for (i, variant) in state.iter().enumerate() {
        if let Some(v) = variant {
            docs.insert(format!("d{i}.xml"), Document::parse(bodies[i][*v]).unwrap());
        }
    }
    if with_linkbase {
        docs.insert("links.xml".to_string(), links.clone());
    }
    docs
}

/// The specification: expand every extended link on its own and resolve
/// its hrefs against the linkbase path (any expansion error wins), then
/// resolve both endpoints of every traversal one by one, stopping at the
/// first error.
fn naive_resolve(
    resolver: &Resolver<'_, BTreeMap<String, Document>>,
    linkbase: &Linkbase,
) -> Result<Vec<ResolvedTraversal>, XLinkError> {
    let absolute = |ep: Endpoint| match ep {
        Endpoint::Remote(h) => Endpoint::Remote(h.resolve_against(linkbase.path())),
        local => local,
    };
    let mut traversals = Vec::new();
    for link in linkbase.extended_links() {
        traversals.extend(link.traversals()?);
    }
    let mut out = Vec::new();
    for mut t in traversals {
        t.from = absolute(t.from);
        t.to = absolute(t.to);
        let from = resolver.resolve_endpoint(&t.from)?;
        let to = resolver.resolve_endpoint(&t.to)?;
        out.push(ResolvedTraversal {
            traversal: t,
            from,
            to,
        });
    }
    Ok(out)
}

proptest! {
    /// Resolver law: the memoized expansion and the one-lookup-per-href
    /// resolution return exactly what the naive per-traversal resolution
    /// returns — the same traversals in the same order, or the same first
    /// error — on the first call and on every later one.
    #[test]
    fn memoized_resolution_equals_naive(
        links in proptest::collection::vec(link_spec(), 1..4),
        present in (0usize..8).prop_map(|m| [m & 1 != 0, m & 2 != 0, m & 4 != 0]),
        with_linkbase in (0usize..2).prop_map(|b| b == 1),
    ) {
        let doc = linkbase_doc(&links);
        let linkbase = Linkbase::from_document(&doc, "links.xml").unwrap();
        let docs = provider(present, &doc, with_linkbase);
        let resolver = Resolver::new(&docs, "links.xml");
        let expected = naive_resolve(&resolver, &linkbase);
        prop_assert_eq!(resolver.resolve(&linkbase), expected.clone());
        prop_assert_eq!(resolver.resolve(&linkbase), expected);
    }

    /// Memo law: one long-lived [`ResolutionMemo`], validated after every
    /// step of a random script of provider states, agrees with a fresh
    /// `Resolver::resolve` at that step — `Ok`, or the same first error.
    /// The states delete and restore documents, swap bodies for a variant
    /// that drops an id a fragment names, and take the linkbase itself away
    /// from same-document references. Every state is parsed afresh, so an
    /// unchanged document is a new one with equal content.
    #[test]
    fn memoized_validation_equals_resolve(
        links in proptest::collection::vec(link_spec(), 1..4),
        script in proptest::collection::vec(
            (0usize..3, 0usize..3, 0usize..3, 0usize..2),
            1..8,
        ),
    ) {
        let doc = linkbase_doc(&links);
        let linkbase = Linkbase::from_document(&doc, "links.xml").unwrap();
        let mut memo = ResolutionMemo::new(&linkbase);
        let variant = |code: usize| code.checked_sub(1);
        for (d0, d1, d2, with_linkbase) in script {
            let state = [variant(d0), variant(d1), variant(d2)];
            let docs = provider_state(state, &doc, with_linkbase == 1);
            let expected = Resolver::new(&docs, "links.xml").resolve(&linkbase).map(|_| ());
            prop_assert_eq!(memo.validate(&docs).map(|_| ()), expected);
        }
    }
}
