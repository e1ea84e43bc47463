//! An XSLT-lite template transformer: data XML in, presentation XML out.
//!
//! The paper's pipeline keeps **presentation** as its own concern. Full XSLT
//! is far more than the separation argument requires, so this module
//! implements the core template model: match templates, `value-of`,
//! `apply-templates`, `for-each`, `if`, `attribute`, plus attribute-value
//! interpolation with `{path}`. Stylesheets are themselves XML:
//!
//! ```xml
//! <transform>
//!   <template match="painter">
//!     <html><body>
//!       <h1><value-of select="@name"/></h1>
//!       <ul><apply-templates select="painting"/></ul>
//!     </body></html>
//!   </template>
//!   <template match="painting">
//!     <li id="{@id}"><value-of select="@title"/></li>
//!   </template>
//! </transform>
//! ```

use navsep_xml::{Document, NodeId, NodeKind, QName};
use navsep_xpointer::Location;
use navsep_xpointer::{evaluate_from, parser::parse_location_path, LocationPath};
use std::error::Error as StdError;
use std::fmt;

/// Errors raised while loading or applying a transform.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TemplateError {
    /// The transform document is not structured as expected.
    InvalidTransform(String),
    /// A `select`/`test`/`match` expression failed to parse.
    InvalidExpression {
        /// The offending expression text.
        expression: String,
        /// Parser message.
        reason: String,
    },
    /// Template application recursed deeper than the configured limit
    /// (almost certainly a template loop).
    RecursionLimit(usize),
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::InvalidTransform(m) => write!(f, "invalid transform: {m}"),
            TemplateError::InvalidExpression { expression, reason } => {
                write!(f, "invalid expression {expression:?}: {reason}")
            }
            TemplateError::RecursionLimit(n) => {
                write!(f, "template recursion exceeded {n} levels")
            }
        }
    }
}

impl StdError for TemplateError {}

/// A match pattern: `/` (the root), a name, a `parent/name` suffix path, or
/// `*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// Matches the document root element (`match="/"`).
    Root,
    /// Matches any element (`match="*"`).
    Any,
    /// Matches elements whose ancestor-name suffix equals these segments
    /// (e.g. `painter/painting` matches `painting` directly under `painter`).
    Suffix(Vec<String>),
}

impl Pattern {
    /// Parses a pattern string.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::InvalidExpression`] for empty patterns or
    /// empty path segments.
    pub fn parse(text: &str) -> Result<Self, TemplateError> {
        let text = text.trim();
        match text {
            "/" => Ok(Pattern::Root),
            "*" => Ok(Pattern::Any),
            "" => Err(TemplateError::InvalidExpression {
                expression: text.to_string(),
                reason: "empty pattern".into(),
            }),
            _ => {
                let segs: Vec<String> = text.split('/').map(str::to_string).collect();
                if segs.iter().any(String::is_empty) {
                    return Err(TemplateError::InvalidExpression {
                        expression: text.to_string(),
                        reason: "empty path segment".into(),
                    });
                }
                Ok(Pattern::Suffix(segs))
            }
        }
    }

    /// Whether the pattern matches `node`.
    pub fn matches(&self, doc: &Document, node: NodeId) -> bool {
        match self {
            Pattern::Root => doc.root_element() == Some(node),
            Pattern::Any => doc.is_element(node),
            Pattern::Suffix(segs) => {
                let mut cur = Some(node);
                for seg in segs.iter().rev() {
                    match cur {
                        Some(n) if doc.name(n).map(|q| q.local() == seg).unwrap_or(false) => {
                            cur = doc.parent(n);
                        }
                        _ => return false,
                    }
                }
                true
            }
        }
    }

    /// Priority for conflict resolution: longer suffixes beat shorter,
    /// which beat `*`; `/` is most specific of all.
    pub fn priority(&self) -> usize {
        match self {
            Pattern::Root => usize::MAX,
            Pattern::Any => 0,
            Pattern::Suffix(segs) => segs.len(),
        }
    }
}

/// An instruction inside a template body.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Instruction {
    Literal {
        name: QName,
        attrs: Vec<(QName, AttrTemplate)>,
        children: Vec<Instruction>,
    },
    Text(String),
    ValueOf(LocationPath),
    ApplyTemplates(Option<LocationPath>),
    ForEach {
        select: LocationPath,
        body: Vec<Instruction>,
    },
    If {
        test: Test,
        body: Vec<Instruction>,
    },
    AttributeInstr {
        name: String,
        value: AttrTemplate,
    },
}

/// A test expression for `<if test="...">`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Test {
    Exists(LocationPath),
    Equals(LocationPath, String),
    NotExists(LocationPath),
}

/// An attribute value template: literal text with `{path}` interpolations.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AttrTemplate {
    parts: Vec<AttrPart>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum AttrPart {
    Literal(String),
    Expr(LocationPath),
}

/// One template rule.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Template {
    pattern: Pattern,
    body: Vec<Instruction>,
    order: usize,
}

/// A compiled transform (set of template rules).
///
/// # Examples
///
/// ```
/// use navsep_style::Transform;
/// use navsep_xml::Document;
///
/// let t = Transform::parse_str(r#"<transform>
///   <template match="greeting"><p><value-of select="."/></p></template>
/// </transform>"#)?;
/// let data = Document::parse("<greeting>hello</greeting>")?;
/// let html = t.apply(&data)?;
/// assert!(html.to_xml_string().contains("<p>hello</p>"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Transform {
    templates: Vec<Template>,
    max_depth: usize,
}

impl Transform {
    /// Compiles a transform from its XML document form.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::InvalidTransform`] when the document isn't a
    /// `<transform>` of `<template match="…">` rules, and expression errors
    /// for bad `select`/`match`/`test` attributes.
    pub fn from_document(doc: &Document) -> Result<Self, TemplateError> {
        let root = doc
            .root_element()
            .ok_or_else(|| TemplateError::InvalidTransform("no root element".into()))?;
        if doc.name(root).map(|q| q.local()) != Some("transform") {
            return Err(TemplateError::InvalidTransform(
                "root element must be <transform>".into(),
            ));
        }
        let mut templates = Vec::new();
        for (order, tpl) in doc.child_elements(root).enumerate() {
            if doc.name(tpl).map(|q| q.local()) != Some("template") {
                return Err(TemplateError::InvalidTransform(format!(
                    "unexpected <{}> under <transform>",
                    doc.name(tpl)
                        .map(|q| q.local().to_string())
                        .unwrap_or_default()
                )));
            }
            let pattern_text = doc.attribute(tpl, "match").ok_or_else(|| {
                TemplateError::InvalidTransform("<template> requires match attribute".into())
            })?;
            let pattern = Pattern::parse(pattern_text)?;
            let body = parse_body(doc, tpl)?;
            templates.push(Template {
                pattern,
                body,
                order,
            });
        }
        Ok(Transform {
            templates,
            max_depth: 256,
        })
    }

    /// Compiles a transform from XML text.
    ///
    /// # Errors
    ///
    /// XML parse errors are reported as [`TemplateError::InvalidTransform`];
    /// see [`Transform::from_document`] for the rest.
    pub fn parse_str(text: &str) -> Result<Self, TemplateError> {
        let doc =
            Document::parse(text).map_err(|e| TemplateError::InvalidTransform(e.to_string()))?;
        Self::from_document(&doc)
    }

    /// Number of template rules.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// `true` when the transform has no rules (built-ins still apply).
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Applies the transform to `src`, producing a new document.
    ///
    /// Processing starts at the root element with `apply-templates`
    /// semantics; nodes without a matching template fall back to the XSLT
    /// built-in rules (descend for elements, copy for text).
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::RecursionLimit`] on runaway recursion.
    pub fn apply(&self, src: &Document) -> Result<Document, TemplateError> {
        let mut out = Document::new();
        let out_root = out.document_node();
        if let Some(root) = src.root_element() {
            self.apply_to_node(src, root, &mut out, out_root, 0)?;
        }
        Ok(out)
    }

    fn best_template(&self, src: &Document, node: NodeId) -> Option<&Template> {
        self.templates
            .iter()
            .filter(|t| t.pattern.matches(src, node))
            .max_by_key(|t| (t.pattern.priority(), t.order))
    }

    fn apply_to_node(
        &self,
        src: &Document,
        node: NodeId,
        out: &mut Document,
        out_parent: NodeId,
        depth: usize,
    ) -> Result<(), TemplateError> {
        if depth > self.max_depth {
            return Err(TemplateError::RecursionLimit(self.max_depth));
        }
        if let NodeKind::Text(t) = src.kind(node) {
            // Built-in rule for text: copy it through.
            if !t.trim().is_empty() {
                out.create_text(out_parent, t.clone());
            }
            return Ok(());
        }
        if !src.is_element(node) {
            return Ok(()); // comments and PIs are dropped
        }
        match self.best_template(src, node) {
            Some(tpl) => {
                // Clone body reference via index to avoid borrow issues.
                let body = tpl.body.clone();
                self.run_body(&body, src, node, out, out_parent, depth)
            }
            None => {
                // Built-in rule for elements: recurse into children.
                for &c in src.children(node) {
                    self.apply_to_node(src, c, out, out_parent, depth + 1)?;
                }
                Ok(())
            }
        }
    }

    fn run_body(
        &self,
        body: &[Instruction],
        src: &Document,
        ctx: NodeId,
        out: &mut Document,
        out_parent: NodeId,
        depth: usize,
    ) -> Result<(), TemplateError> {
        for instr in body {
            match instr {
                Instruction::Text(t) => {
                    out.create_text(out_parent, t.clone());
                }
                Instruction::Literal {
                    name,
                    attrs,
                    children,
                } => {
                    let el = out.create_element(out_parent, name.clone());
                    for (aname, avalue) in attrs {
                        let v = eval_attr_template(avalue, src, ctx);
                        out.set_attribute(el, aname.clone(), v);
                    }
                    self.run_body(children, src, ctx, out, el, depth + 1)?;
                }
                Instruction::ValueOf(path) => {
                    let v = string_value(src, ctx, path);
                    if !v.is_empty() {
                        out.create_text(out_parent, v);
                    }
                }
                Instruction::ApplyTemplates(select) => {
                    let targets: Vec<NodeId> = match select {
                        Some(path) => evaluate_from(src, ctx, path)
                            .into_iter()
                            .map(|l| l.node())
                            .collect(),
                        None => src.children(ctx).to_vec(),
                    };
                    for t in targets {
                        self.apply_to_node(src, t, out, out_parent, depth + 1)?;
                    }
                }
                Instruction::ForEach { select, body } => {
                    let targets: Vec<NodeId> = evaluate_from(src, ctx, select)
                        .into_iter()
                        .map(|l| l.node())
                        .collect();
                    for t in targets {
                        self.run_body(body, src, t, out, out_parent, depth + 1)?;
                    }
                }
                Instruction::If { test, body } => {
                    if eval_test(test, src, ctx) {
                        self.run_body(body, src, ctx, out, out_parent, depth + 1)?;
                    }
                }
                Instruction::AttributeInstr { name, value } => {
                    // At the top of a template the output parent is the
                    // document node, which has no attributes to set.
                    if !out.is_element(out_parent) {
                        return Err(TemplateError::InvalidTransform(format!(
                            "<attribute name=\"{name}\"> outside an output element"
                        )));
                    }
                    let v = eval_attr_template(value, src, ctx);
                    out.set_attribute(out_parent, name.as_str(), v);
                }
            }
        }
        Ok(())
    }
}

/// The XPath-ish string value of the first node selected by `path` at `ctx`.
fn string_value(src: &Document, ctx: NodeId, path: &LocationPath) -> String {
    // `.` (self) means the context node's text content.
    match evaluate_from(src, ctx, path).into_iter().next() {
        Some(Location::Node(n)) => src.text_content(n),
        Some(Location::Attribute { value, .. }) => value,
        None => String::new(),
    }
}

fn eval_test(test: &Test, src: &Document, ctx: NodeId) -> bool {
    match test {
        Test::Exists(path) => !evaluate_from(src, ctx, path).is_empty(),
        Test::NotExists(path) => evaluate_from(src, ctx, path).is_empty(),
        Test::Equals(path, expected) => string_value(src, ctx, path) == *expected,
    }
}

fn eval_attr_template(tpl: &AttrTemplate, src: &Document, ctx: NodeId) -> String {
    let mut out = String::new();
    for part in &tpl.parts {
        match part {
            AttrPart::Literal(t) => out.push_str(t),
            AttrPart::Expr(path) => out.push_str(&string_value(src, ctx, path)),
        }
    }
    out
}

// ---- compilation ------------------------------------------------------------

fn parse_select(text: &str) -> Result<LocationPath, TemplateError> {
    parse_location_path(text, 0).map_err(|e| TemplateError::InvalidExpression {
        expression: text.to_string(),
        reason: e.to_string(),
    })
}

fn parse_test(text: &str) -> Result<Test, TemplateError> {
    let text = text.trim();
    if let Some(inner) = text.strip_prefix("not(").and_then(|t| t.strip_suffix(')')) {
        return Ok(Test::NotExists(parse_select(inner)?));
    }
    if let Some(eq) = text.find('=') {
        let (lhs, rhs) = text.split_at(eq);
        let rhs = rhs[1..].trim().trim_matches(['\'', '"']);
        return Ok(Test::Equals(parse_select(lhs.trim())?, rhs.to_string()));
    }
    Ok(Test::Exists(parse_select(text)?))
}

fn parse_attr_template(text: &str) -> Result<AttrTemplate, TemplateError> {
    let mut parts = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('{') {
        if !rest[..open].is_empty() {
            parts.push(AttrPart::Literal(rest[..open].to_string()));
        }
        let close = rest[open..].find('}').map(|i| open + i).ok_or_else(|| {
            TemplateError::InvalidExpression {
                expression: text.to_string(),
                reason: "unclosed '{' in attribute template".into(),
            }
        })?;
        parts.push(AttrPart::Expr(parse_select(&rest[open + 1..close])?));
        rest = &rest[close + 1..];
    }
    if !rest.is_empty() {
        parts.push(AttrPart::Literal(rest.to_string()));
    }
    Ok(AttrTemplate { parts })
}

fn parse_body(doc: &Document, parent: NodeId) -> Result<Vec<Instruction>, TemplateError> {
    let mut out = Vec::new();
    for &child in doc.children(parent) {
        match doc.kind(child) {
            NodeKind::Text(t) if !t.trim().is_empty() => {
                out.push(Instruction::Text(t.clone()));
            }
            NodeKind::Element { name, .. } => {
                let local = name.local().to_string();
                match local.as_str() {
                    "value-of" => {
                        let select = doc.attribute(child, "select").ok_or_else(|| {
                            TemplateError::InvalidTransform("value-of requires select".into())
                        })?;
                        out.push(Instruction::ValueOf(parse_select(select)?));
                    }
                    "apply-templates" => {
                        let select = match doc.attribute(child, "select") {
                            Some(s) => Some(parse_select(s)?),
                            None => None,
                        };
                        out.push(Instruction::ApplyTemplates(select));
                    }
                    "for-each" => {
                        let select = doc.attribute(child, "select").ok_or_else(|| {
                            TemplateError::InvalidTransform("for-each requires select".into())
                        })?;
                        out.push(Instruction::ForEach {
                            select: parse_select(select)?,
                            body: parse_body(doc, child)?,
                        });
                    }
                    "if" => {
                        let test = doc.attribute(child, "test").ok_or_else(|| {
                            TemplateError::InvalidTransform("if requires test".into())
                        })?;
                        out.push(Instruction::If {
                            test: parse_test(test)?,
                            body: parse_body(doc, child)?,
                        });
                    }
                    "attribute" => {
                        let name = doc.attribute(child, "name").ok_or_else(|| {
                            TemplateError::InvalidTransform("attribute requires name".into())
                        })?;
                        let value = doc.attribute(child, "value").unwrap_or("");
                        out.push(Instruction::AttributeInstr {
                            name: name.to_string(),
                            value: parse_attr_template(value)?,
                        });
                    }
                    "text" => {
                        out.push(Instruction::Text(doc.text_content(child)));
                    }
                    _ => {
                        // Literal output element.
                        let attrs = doc
                            .attributes(child)
                            .iter()
                            .map(|a| Ok((a.name().clone(), parse_attr_template(a.value())?)))
                            .collect::<Result<Vec<_>, TemplateError>>()?;
                        out.push(Instruction::Literal {
                            name: name.clone(),
                            attrs,
                            children: parse_body(doc, child)?,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn museum_data() -> Document {
        Document::parse(
            r#"<painter id="picasso" name="Pablo Picasso">
  <painting id="guitar" title="Guitar" year="1913"/>
  <painting id="guernica" title="Guernica" year="1937"/>
</painter>"#,
        )
        .unwrap()
    }

    #[test]
    fn value_of_and_literals() {
        let t = Transform::parse_str(
            r#"<transform>
  <template match="painter">
    <h1><value-of select="@name"/></h1>
  </template>
</transform>"#,
        )
        .unwrap();
        let out = t.apply(&museum_data()).unwrap();
        let xml = out.to_xml_string();
        assert!(xml.contains("<h1>Pablo Picasso</h1>"), "{xml}");
    }

    #[test]
    fn attribute_at_the_top_of_a_template_is_an_error_not_a_panic() {
        // The output parent at the top of the root template is the
        // document node, which cannot carry an attribute.
        let t = Transform::parse_str(
            r#"<transform>
  <template match="painter"><attribute name="lost" value="x"/><h1/></template>
</transform>"#,
        )
        .unwrap();
        match t.apply(&museum_data()) {
            Err(TemplateError::InvalidTransform(m)) => assert!(m.contains("lost"), "{m}"),
            other => panic!("expected a template error, got {other:?}"),
        }
        // Inside an output element the same instruction is fine.
        let t = Transform::parse_str(
            r#"<transform>
  <template match="painter"><h1><attribute name="kept" value="x"/></h1></template>
</transform>"#,
        )
        .unwrap();
        let xml = t.apply(&museum_data()).unwrap().to_xml_string();
        assert!(xml.contains(r#"<h1 kept="x"/>"#), "{xml}");
    }

    #[test]
    fn apply_templates_recursion() {
        let t = Transform::parse_str(
            r#"<transform>
  <template match="painter">
    <ul><apply-templates select="painting"/></ul>
  </template>
  <template match="painting">
    <li><value-of select="@title"/></li>
  </template>
</transform>"#,
        )
        .unwrap();
        let out = t.apply(&museum_data()).unwrap();
        let xml = out.to_xml_string();
        assert!(
            xml.contains("<ul><li>Guitar</li><li>Guernica</li></ul>"),
            "{xml}"
        );
    }

    #[test]
    fn for_each_iterates_in_order() {
        let t = Transform::parse_str(
            r#"<transform>
  <template match="painter">
    <p><for-each select="painting"><value-of select="@year"/><text> </text></for-each></p>
  </template>
</transform>"#,
        )
        .unwrap();
        let out = t.apply(&museum_data()).unwrap();
        assert!(out.to_xml_string().contains("1913 1937 "));
    }

    #[test]
    fn attribute_value_templates() {
        let t = Transform::parse_str(
            r#"<transform>
  <template match="painting">
    <a href="paintings/{@id}.html"><value-of select="@title"/></a>
  </template>
  <template match="painter"><apply-templates select="painting"/></template>
</transform>"#,
        )
        .unwrap();
        let out = t.apply(&museum_data()).unwrap();
        let xml = out.to_xml_string();
        assert!(xml.contains("href=\"paintings/guitar.html\""), "{xml}");
    }

    #[test]
    fn if_exists_and_equals() {
        let t = Transform::parse_str(
            r#"<transform>
  <template match="painting">
    <if test="@year='1913'"><early/></if>
    <if test="@missing"><never/></if>
    <if test="not(@missing)"><ok/></if>
  </template>
  <template match="painter"><apply-templates select="painting"/></template>
</transform>"#,
        )
        .unwrap();
        let out = t.apply(&museum_data()).unwrap();
        let xml = out.to_xml_string();
        assert_eq!(xml.matches("<early/>").count(), 1);
        assert_eq!(xml.matches("<never/>").count(), 0);
        assert_eq!(xml.matches("<ok/>").count(), 2);
    }

    #[test]
    fn attribute_instruction_sets_on_parent() {
        let t = Transform::parse_str(
            r#"<transform>
  <template match="painter">
    <div><attribute name="data-id" value="{@id}"/>x</div>
  </template>
</transform>"#,
        )
        .unwrap();
        let out = t.apply(&museum_data()).unwrap();
        assert!(out
            .to_xml_string()
            .contains("<div data-id=\"picasso\">x</div>"));
    }

    #[test]
    fn builtin_rules_descend_and_copy_text() {
        let t = Transform::parse_str(
            r#"<transform>
  <template match="em"><strong><value-of select="."/></strong></template>
</transform>"#,
        )
        .unwrap();
        let data = Document::parse("<p>one <em>two</em> three</p>").unwrap();
        let out = t.apply(&data).unwrap();
        let xml = out.to_xml_string();
        // <p> has no template: built-in descends; text copied; <em> matched.
        assert!(xml.contains("one"), "{xml}");
        assert!(xml.contains("<strong>two</strong>"), "{xml}");
        assert!(xml.contains("three"), "{xml}");
    }

    #[test]
    fn suffix_pattern_specificity() {
        let t = Transform::parse_str(
            r#"<transform>
  <template match="painting"><generic/></template>
  <template match="painter/painting"><specific/></template>
  <template match="painter"><apply-templates select="painting"/></template>
</transform>"#,
        )
        .unwrap();
        let out = t.apply(&museum_data()).unwrap();
        let xml = out.to_xml_string();
        assert_eq!(xml.matches("<specific/>").count(), 2);
        assert_eq!(xml.matches("<generic/>").count(), 0);
    }

    #[test]
    fn root_pattern() {
        let t = Transform::parse_str(
            r#"<transform>
  <template match="/"><root-seen/></template>
</transform>"#,
        )
        .unwrap();
        let out = t.apply(&museum_data()).unwrap();
        assert!(out.to_xml_string().contains("<root-seen/>"));
    }

    #[test]
    fn invalid_transforms_rejected() {
        assert!(Transform::parse_str("<notatransform/>").is_err());
        assert!(Transform::parse_str("<transform><template/></transform>").is_err());
        assert!(Transform::parse_str(
            "<transform><template match=\"a\"><value-of/></template></transform>"
        )
        .is_err());
        assert!(Transform::parse_str("<transform><x match=\"a\"/></transform>").is_err());
    }

    #[test]
    fn recursion_limit_detected() {
        // A template that applies templates to itself forever (self axis).
        let t = Transform::parse_str(
            r#"<transform>
  <template match="a"><apply-templates select="."/></template>
</transform>"#,
        )
        .unwrap();
        let data = Document::parse("<a/>").unwrap();
        assert!(matches!(
            t.apply(&data),
            Err(TemplateError::RecursionLimit(_))
        ));
    }

    #[test]
    fn wildcard_template() {
        let t = Transform::parse_str(
            r#"<transform>
  <template match="*"><any><apply-templates/></any></template>
</transform>"#,
        )
        .unwrap();
        let data = Document::parse("<a><b/></a>").unwrap();
        let out = t.apply(&data).unwrap();
        assert!(out.to_xml_string().contains("<any><any/></any>"));
    }
}
