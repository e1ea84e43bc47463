//! Qualified names and namespace machinery.
//!
//! XML 1.0 + Namespaces: every element and attribute has a *qualified name*
//! consisting of an optional prefix and a local part; prefixes are bound to
//! namespace URIs by `xmlns` / `xmlns:p` declarations that scope over the
//! declaring element's subtree.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Namespace URI reserved for the `xml` prefix (e.g. `xml:id`, `xml:lang`).
pub const XML_NS: &str = "http://www.w3.org/XML/1998/namespace";
/// Namespace URI reserved for namespace declarations themselves.
pub const XMLNS_NS: &str = "http://www.w3.org/2000/xmlns/";

/// A qualified XML name with its resolved namespace.
///
/// `QName` stores the lexical `prefix` (empty for unprefixed names), the
/// `local` part, and the resolved `namespace` URI, if any. Two names are
/// semantically equal when local part and namespace agree; the prefix is a
/// serialization detail. [`QName::matches`] implements that comparison, while
/// `PartialEq` on the whole struct is strict (prefix included) so that
/// round-trip tests can be exact.
///
/// The parts are shared strings: a document clone copies one name per
/// element and attribute, and each copy is a reference-count bump.
///
/// # Examples
///
/// ```
/// use navsep_xml::QName;
///
/// let plain = QName::new("painting");
/// assert_eq!(plain.local(), "painting");
/// assert!(plain.namespace().is_none());
///
/// let xlink = QName::with_namespace("xlink", "href", "http://www.w3.org/1999/xlink");
/// assert_eq!(xlink.to_string(), "xlink:href");
/// assert!(xlink.matches(Some("http://www.w3.org/1999/xlink"), "href"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QName {
    /// `None` when unprefixed (never `Some("")`).
    prefix: Option<Arc<str>>,
    local: Arc<str>,
    namespace: Option<Arc<str>>,
}

impl QName {
    /// Creates an unprefixed name in no namespace (the common case).
    pub fn new(local: impl Into<Arc<str>>) -> Self {
        QName {
            prefix: None,
            local: local.into(),
            namespace: None,
        }
    }

    /// Creates a name with an explicit prefix and resolved namespace URI.
    pub fn with_namespace(
        prefix: impl Into<Arc<str>>,
        local: impl Into<Arc<str>>,
        namespace: impl Into<Arc<str>>,
    ) -> Self {
        let prefix: Arc<str> = prefix.into();
        QName {
            prefix: (!prefix.is_empty()).then_some(prefix),
            local: local.into(),
            namespace: Some(namespace.into()),
        }
    }

    /// Creates an unprefixed name bound to a default namespace URI.
    pub fn in_default_namespace(
        local: impl Into<Arc<str>>,
        namespace: impl Into<Arc<str>>,
    ) -> Self {
        QName {
            prefix: None,
            local: local.into(),
            namespace: Some(namespace.into()),
        }
    }

    /// The lexical prefix; empty string when the name is unprefixed.
    pub fn prefix(&self) -> &str {
        self.prefix.as_deref().unwrap_or("")
    }

    /// The local part of the name.
    pub fn local(&self) -> &str {
        &self.local
    }

    /// The resolved namespace URI, if the name is in a namespace.
    pub fn namespace(&self) -> Option<&str> {
        self.namespace.as_deref()
    }

    /// Semantic comparison: namespace URI + local part, ignoring the prefix.
    pub fn matches(&self, namespace: Option<&str>, local: &str) -> bool {
        &*self.local == local && self.namespace.as_deref() == namespace
    }

    /// The name as written in markup: `prefix:local` or just `local`.
    pub fn as_markup(&self) -> String {
        self.to_string()
    }

    /// Splits a lexical name into `(prefix, local)`.
    ///
    /// Returns `None` for malformed names (empty parts, more than one colon).
    pub fn split_lexical(name: &str) -> Option<(&str, &str)> {
        match name.find(':') {
            None => Some(("", name)),
            Some(idx) => {
                let (prefix, rest) = name.split_at(idx);
                let local = &rest[1..];
                if prefix.is_empty() || local.is_empty() || local.contains(':') {
                    None
                } else {
                    Some((prefix, local))
                }
            }
        }
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.prefix {
            None => write!(f, "{}", self.local),
            Some(prefix) => write!(f, "{prefix}:{}", self.local),
        }
    }
}

impl From<&str> for QName {
    /// Parses `"prefix:local"` lexically *without* namespace resolution.
    fn from(s: &str) -> Self {
        match QName::split_lexical(s) {
            Some(("", local)) => QName::new(local),
            Some((prefix, local)) => QName {
                prefix: Some(Arc::from(prefix)),
                local: Arc::from(local),
                namespace: None,
            },
            None => QName::new(s),
        }
    }
}

/// The strings of the names one document is parsed or built from, each
/// distinct name part and namespace URI allocated once. A document whose
/// names share their strings is copied and dropped with a few reference
/// counts on hot strings, not one allocation per name.
#[derive(Debug, Default)]
pub(crate) struct NameTable(HashSet<Arc<str>>);

impl NameTable {
    /// The shared copy of `s`, added on first sight.
    pub(crate) fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(shared) = self.0.get(s) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(s);
        self.0.insert(Arc::clone(&shared));
        shared
    }

    /// `name` with every part taken from the table.
    pub(crate) fn share(&mut self, name: &QName) -> QName {
        QName {
            prefix: name.prefix.as_deref().map(|p| self.intern(p)),
            local: self.intern(&name.local),
            namespace: name.namespace.as_deref().map(|n| self.intern(n)),
        }
    }
}

/// Returns `true` if `c` may start an XML name.
pub fn is_name_start_char(c: char) -> bool {
    matches!(c,
        ':' | '_' | 'A'..='Z' | 'a'..='z'
        | '\u{C0}'..='\u{D6}' | '\u{D8}'..='\u{F6}' | '\u{F8}'..='\u{2FF}'
        | '\u{370}'..='\u{37D}' | '\u{37F}'..='\u{1FFF}'
        | '\u{200C}'..='\u{200D}' | '\u{2070}'..='\u{218F}'
        | '\u{2C00}'..='\u{2FEF}' | '\u{3001}'..='\u{D7FF}'
        | '\u{F900}'..='\u{FDCF}' | '\u{FDF0}'..='\u{FFFD}'
        | '\u{10000}'..='\u{EFFFF}')
}

/// Returns `true` if `c` may continue an XML name.
pub fn is_name_char(c: char) -> bool {
    is_name_start_char(c)
        || matches!(c, '-' | '.' | '0'..='9' | '\u{B7}' | '\u{300}'..='\u{36F}' | '\u{203F}'..='\u{2040}')
}

/// Returns `true` if `name` is a syntactically valid XML name.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if is_name_start_char(c) => chars.all(is_name_char),
        _ => false,
    }
}

/// A single namespace declaration: a prefix (empty = default) bound to a URI.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NamespaceDecl {
    /// Declared prefix; empty string for the default namespace.
    pub prefix: String,
    /// The namespace URI; empty string *un*-declares the default namespace.
    pub uri: String,
}

/// A scoped stack of namespace bindings used during parsing.
///
/// Push one frame per open element, declare bindings into it, and pop on
/// close. Lookup walks frames from innermost to outermost. The `xml` prefix
/// is implicitly bound per the Namespaces in XML recommendation.
#[derive(Debug, Clone, Default)]
pub struct NamespaceStack {
    frames: Vec<Vec<NamespaceDecl>>,
}

impl NamespaceStack {
    /// Creates an empty stack (only the implicit `xml` binding in scope).
    pub fn new() -> Self {
        NamespaceStack { frames: Vec::new() }
    }

    /// Opens a new scope; bindings declared now are dropped by [`pop`].
    ///
    /// [`pop`]: NamespaceStack::pop
    pub fn push(&mut self) {
        self.frames.push(Vec::new());
    }

    /// Closes the innermost scope.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        self.frames.pop().expect("namespace stack underflow");
    }

    /// Declares `prefix` (empty = default namespace) bound to `uri` in the
    /// innermost scope.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn declare(&mut self, prefix: impl Into<String>, uri: impl Into<String>) {
        self.frames
            .last_mut()
            .expect("declare outside any namespace scope")
            .push(NamespaceDecl {
                prefix: prefix.into(),
                uri: uri.into(),
            });
    }

    /// Resolves `prefix` to its in-scope URI.
    ///
    /// Returns `None` for unbound prefixes. The empty prefix resolves to the
    /// default namespace, returning `None` when that is undeclared (or has
    /// been re-declared to the empty string).
    pub fn resolve(&self, prefix: &str) -> Option<&str> {
        if prefix == "xml" {
            return Some(XML_NS);
        }
        if prefix == "xmlns" {
            return Some(XMLNS_NS);
        }
        for frame in self.frames.iter().rev() {
            for decl in frame.iter().rev() {
                if decl.prefix == prefix {
                    if decl.uri.is_empty() {
                        return None;
                    }
                    return Some(&decl.uri);
                }
            }
        }
        None
    }

    /// The default namespace URI in scope, if any.
    pub fn default_namespace(&self) -> Option<&str> {
        self.resolve("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qname_display() {
        assert_eq!(QName::new("a").to_string(), "a");
        assert_eq!(QName::with_namespace("x", "a", "urn:x").to_string(), "x:a");
    }

    #[test]
    fn qname_matches_ignores_prefix() {
        let a = QName::with_namespace("p", "href", "urn:l");
        let b = QName::with_namespace("q", "href", "urn:l");
        assert!(a.matches(Some("urn:l"), "href"));
        assert!(b.matches(Some("urn:l"), "href"));
        assert_ne!(a, b); // strict equality keeps the prefix
    }

    #[test]
    fn split_lexical_accepts_plain_and_prefixed() {
        assert_eq!(QName::split_lexical("a"), Some(("", "a")));
        assert_eq!(QName::split_lexical("p:a"), Some(("p", "a")));
        assert_eq!(QName::split_lexical(":a"), None);
        assert_eq!(QName::split_lexical("p:"), None);
        assert_eq!(QName::split_lexical("p:a:b"), None);
    }

    #[test]
    fn name_validity() {
        assert!(is_valid_name("painting"));
        assert!(is_valid_name("_id"));
        assert!(is_valid_name("ns:a")); // colon allowed lexically
        assert!(!is_valid_name("1abc"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("a b"));
        assert!(is_valid_name("año")); // non-ASCII letters allowed
    }

    #[test]
    fn namespace_stack_scoping() {
        let mut ns = NamespaceStack::new();
        ns.push();
        ns.declare("", "urn:default");
        ns.declare("x", "urn:one");
        assert_eq!(ns.resolve("x"), Some("urn:one"));
        assert_eq!(ns.default_namespace(), Some("urn:default"));

        ns.push();
        ns.declare("x", "urn:two");
        assert_eq!(ns.resolve("x"), Some("urn:two"));
        ns.pop();

        assert_eq!(ns.resolve("x"), Some("urn:one"));
        ns.pop();
        assert_eq!(ns.resolve("x"), None);
    }

    #[test]
    fn xml_prefix_is_implicit() {
        let ns = NamespaceStack::new();
        assert_eq!(ns.resolve("xml"), Some(XML_NS));
    }

    #[test]
    fn empty_uri_undeclares_default() {
        let mut ns = NamespaceStack::new();
        ns.push();
        ns.declare("", "urn:d");
        ns.push();
        ns.declare("", "");
        assert_eq!(ns.default_namespace(), None);
        ns.pop();
        assert_eq!(ns.default_namespace(), Some("urn:d"));
    }
}
