//! Offline stand-in for `thiserror`, used only by the `benchmark/`
//! workspace: `#[derive(Error)]` for non-generic enums, written against
//! `proc_macro` alone (no `syn`/`quote`, which are registry crates).
//!
//! Supported, because the measured crates use exactly this much:
//! `#[error("format {0} {name:?}")]` with positional and named field
//! interpolation (extra format arguments are passed through verbatim),
//! `#[error(transparent)]`, `#[from]` (generates `From` and `source()`),
//! `#[source]` and a field named `source`. Anything else is a compile
//! error naming this file, never silently wrong output. Error `Display`
//! runs on no measured path.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    /// Binding name in the match arm: the field name, or `_N` for tuples.
    binding: String,
    ty: String,
    from: bool,
    source: bool,
}

enum Shape {
    Unit,
    Tuple,
    Named,
}

struct Variant {
    name: String,
    shape: Shape,
    fields: Vec<Field>,
    /// Tokens inside `#[error(...)]`, or `None` for `transparent`.
    display: Option<String>,
}

#[proc_macro_derive(Error, attributes(error, from, source, backtrace))]
pub fn derive_error(input: TokenStream) -> TokenStream {
    match expand(input) {
        Ok(code) => code
            .parse()
            .expect("thiserror stand-in generated invalid Rust"),
        Err(msg) => format!(
            "compile_error!({:?});",
            format!("thiserror stand-in (benchmark/stubs/thiserror): {msg}")
        )
        .parse()
        .expect("compile_error! parses"),
    }
}

fn expand(input: TokenStream) -> Result<String, String> {
    let mut tokens = input.into_iter().peekable();
    let mut name = None;
    while let Some(tt) = tokens.next() {
        if let TokenTree::Ident(id) = &tt {
            match id.to_string().as_str() {
                "enum" => {
                    name = Some(match tokens.next() {
                        Some(TokenTree::Ident(n)) => n.to_string(),
                        _ => return Err("expected a name after `enum`".into()),
                    });
                    break;
                }
                "struct" | "union" => return Err("only enums are supported".into()),
                _ => {}
            }
        }
    }
    let name = name.ok_or("no `enum` item found")?;
    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => {
            return Err(format!(
                "`{name}`: generic or where-claused enums are not supported"
            ))
        }
    };
    let variants = parse_variants(body)?;

    let mut display_arms = String::new();
    let mut source_arms = String::new();
    let mut from_impls = String::new();
    for v in &variants {
        let pattern = pattern(&name, v);
        match &v.display {
            Some(args) => {
                display_arms.push_str(&format!("{pattern} => ::core::write!(__f, {args}),\n"))
            }
            None => {
                let inner = single_field(&name, v, "#[error(transparent)]")?;
                display_arms.push_str(&format!(
                    "{pattern} => ::core::fmt::Display::fmt({}, __f),\n",
                    inner.binding
                ));
                source_arms.push_str(&format!(
                    "{pattern} => ::std::error::Error::source({}),\n",
                    inner.binding
                ));
            }
        }
        if v.display.is_some() {
            if let Some(f) = v
                .fields
                .iter()
                .find(|f| f.from || f.source || f.binding == "source")
            {
                source_arms.push_str(&format!(
                    "{pattern} => ::core::option::Option::Some({}),\n",
                    f.binding
                ));
            }
        }
        if v.fields.iter().any(|f| f.from) {
            let f = single_field(&name, v, "#[from]")?;
            let build = match v.shape {
                Shape::Named => format!("{name}::{} {{ {}: __v }}", v.name, f.binding),
                _ => format!("{name}::{}(__v)", v.name),
            };
            from_impls.push_str(&format!(
                "impl ::core::convert::From<{ty}> for {name} {{ fn from(__v: {ty}) -> Self {{ {build} }} }}\n",
                ty = f.ty
            ));
        }
    }

    Ok(format!(
        "impl ::core::fmt::Display for {name} {{
            #[allow(unused_variables, clippy::used_underscore_binding)]
            fn fmt(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{
                match self {{ {display_arms} }}
            }}
        }}
        impl ::std::error::Error for {name} {{
            #[allow(unused_variables, unreachable_patterns)]
            fn source(&self) -> ::core::option::Option<&(dyn ::std::error::Error + 'static)> {{
                match self {{ {source_arms} _ => ::core::option::Option::None }}
            }}
        }}
        {from_impls}"
    ))
}

fn single_field<'a>(enum_name: &str, v: &'a Variant, what: &str) -> Result<&'a Field, String> {
    match v.fields.as_slice() {
        [only] => Ok(only),
        _ => Err(format!(
            "`{enum_name}::{}`: {what} needs exactly one field",
            v.name
        )),
    }
}

fn pattern(enum_name: &str, v: &Variant) -> String {
    let bindings: Vec<&str> = v.fields.iter().map(|f| f.binding.as_str()).collect();
    match v.shape {
        Shape::Unit => format!("{enum_name}::{}", v.name),
        Shape::Tuple => format!("{enum_name}::{}({})", v.name, bindings.join(", ")),
        Shape::Named => format!("{enum_name}::{} {{ {} }}", v.name, bindings.join(", ")),
    }
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        let attrs = take_attrs(&mut tokens);
        let name = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => return Err(format!("unexpected token `{other}` in enum body")),
        };
        let (shape, fields) = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let fields = parse_fields(g.stream(), false)?;
                tokens.next();
                (Shape::Tuple, fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_fields(g.stream(), true)?;
                tokens.next();
                (Shape::Named, fields)
            }
            _ => (Shape::Unit, Vec::new()),
        };
        // Skip an explicit discriminant and the separating comma.
        for tt in tokens.by_ref() {
            if matches!(&tt, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        let error_attr = attrs
            .iter()
            .find(|(attr, _)| attr == "error")
            .ok_or_else(|| format!("variant `{name}` has no #[error(...)] attribute"))?;
        let display = match error_attr.1.trim() {
            "transparent" => None,
            args if args.starts_with('"') || args.starts_with('r') => {
                Some(rewrite_positional(args))
            }
            other => return Err(format!("variant `{name}`: unsupported #[error({other})]")),
        };
        variants.push(Variant {
            name,
            shape,
            fields,
            display,
        });
    }
    Ok(variants)
}

/// Consumes leading `#[...]` attributes, returning `(name, inner tokens)`
/// for each (`inner` is the text of the parenthesised argument, if any).
fn take_attrs(
    tokens: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>,
) -> Vec<(String, String)> {
    let mut attrs = Vec::new();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        if let Some(TokenTree::Group(g)) = tokens.next() {
            let mut inner = g.stream().into_iter();
            if let Some(TokenTree::Ident(id)) = inner.next() {
                let args = match inner.next() {
                    Some(TokenTree::Group(a)) if a.delimiter() == Delimiter::Parenthesis => {
                        a.stream().to_string()
                    }
                    _ => String::new(),
                };
                attrs.push((id.to_string(), args));
            }
        }
    }
    attrs
}

fn parse_fields(stream: TokenStream, named: bool) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    while tokens.peek().is_some() {
        let attrs = take_attrs(&mut tokens);
        // Visibility: `pub` optionally followed by `(crate)` etc.
        if matches!(tokens.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            tokens.next();
            if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                tokens.next();
            }
        }
        let binding = if named {
            let id = match tokens.next() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => return Err(format!("expected a field name, found {other:?}")),
            };
            match tokens.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                other => return Err(format!("expected `:` after field `{id}`, found {other:?}")),
            }
            id
        } else {
            format!("_{}", fields.len())
        };
        // The type runs to the next comma outside angle brackets.
        let mut ty = Vec::new();
        let mut depth = 0i32;
        for tt in tokens.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            ty.push(tt);
        }
        let ty = ty.into_iter().collect::<TokenStream>().to_string();
        fields.push(Field {
            binding,
            ty,
            from: attrs.iter().any(|(a, _)| a == "from"),
            source: attrs.iter().any(|(a, _)| a == "source"),
        });
    }
    Ok(fields)
}

/// Rewrites positional interpolations `{0}` / `{1:?}` to the tuple
/// bindings `{_0}` / `{_1:?}` so the format string captures them from
/// the match arm. Escaped braces `{{` are left alone.
fn rewrite_positional(args: &str) -> String {
    let mut out = String::with_capacity(args.len() + 8);
    let mut chars = args.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '{' {
            match chars.peek() {
                Some('{') => {
                    out.push('{');
                    chars.next();
                }
                Some(d) if d.is_ascii_digit() => out.push('_'),
                _ => {}
            }
        }
    }
    out
}
