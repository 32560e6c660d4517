//! The annotation language of Figure 4.
//!
//! SPEX asks developers to annotate the *mapping interfaces* — not every
//! parameter — in one of three conventions (§2.2.1):
//!
//! ```text
//! { @STRUCT = ConfigureNamesInt          // structure-based, direct
//!   @PAR = [config_int, 1]
//!   @VAR = [config_int, 3] }
//!
//! { @STRUCT = core_cmds                  // structure-based, via function
//!   @PAR = [command_rec, 1]
//!   @VAR = ([command_rec, 2], $arg) }
//!
//! { @PARSER = loadServerConfig           // comparison-based
//!   @PAR = $argv[0]
//!   @VAR = $argv[1] }
//!
//! { @GETTER = get_i32                    // container-based
//!   @PAR = 1
//!   @VAR = $RET }
//! ```
//!
//! Field and argument indices are 1-based, matching the paper's figures.

/// A `$name` or `$name[i]` variable reference inside an annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarRef {
    /// Referenced function-parameter name.
    pub name: String,
    /// Optional constant index (`$argv[1]`).
    pub index: Option<u32>,
}

/// One parsed annotation block.
#[derive(Debug, Clone, PartialEq)]
pub enum Annotation {
    /// Structure-based mapping with a direct variable pointer field.
    StructDirect {
        /// Name of the global table variable.
        table: String,
        /// Element struct name.
        struct_name: String,
        /// 1-based field index holding the parameter name.
        par_field: u32,
        /// 1-based field index holding the pointer to the variable.
        var_field: u32,
    },
    /// Structure-based mapping through a parsing-function pointer field.
    StructFunction {
        /// Name of the global table variable.
        table: String,
        /// Element struct name.
        struct_name: String,
        /// 1-based field index holding the parameter name.
        par_field: u32,
        /// 1-based field index holding the handler function pointer.
        handler_field: u32,
        /// Name of the handler's parameter that carries the value.
        value_arg: String,
    },
    /// Comparison-based mapping inside a parsing function.
    Parser {
        /// The parsing function's name.
        function: String,
        /// Where the parameter name comes from.
        par: VarRef,
        /// Where the parameter value comes from.
        var: VarRef,
    },
    /// Container-based mapping through getter calls.
    Getter {
        /// The getter function's name.
        function: String,
        /// 1-based argument index of the parameter-name literal.
        par_arg: u32,
    },
}

impl Annotation {
    /// Parses a sequence of annotation blocks.
    ///
    /// Returns the blocks and fails with a message on malformed input.
    pub fn parse(text: &str) -> Result<Vec<Annotation>, String> {
        let mut out = Vec::new();
        let mut rest = text.trim();
        while !rest.is_empty() {
            let open = rest
                .find('{')
                .ok_or_else(|| format!("expected `{{` near: {}", head(rest)))?;
            let close = rest[open..]
                .find('}')
                .map(|i| i + open)
                .ok_or_else(|| "unterminated annotation block".to_string())?;
            let block = &rest[open + 1..close];
            out.push(Self::parse_block(block)?);
            rest = rest[close + 1..].trim();
        }
        Ok(out)
    }

    /// Number of annotation lines (the paper's "LoA" metric of Table 4).
    pub fn count_lines(text: &str) -> usize {
        text.lines().filter(|l| l.contains('@')).count()
    }

    fn parse_block(block: &str) -> Result<Annotation, String> {
        let mut kind: Option<(&str, String)> = None;
        let mut par: Option<String> = None;
        let mut var: Option<String> = None;
        for line in block.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("expected `@KEY = value`, got: {line}"))?;
            let key = key.trim();
            let value = value.trim().to_string();
            match key {
                "@STRUCT" | "@PARSER" | "@GETTER" => kind = Some((key, value)),
                "@PAR" => par = Some(value),
                "@VAR" => var = Some(value),
                other => return Err(format!("unknown annotation key `{other}`")),
            }
        }
        let (kind, subject) = kind.ok_or("missing @STRUCT/@PARSER/@GETTER")?;
        let par = par.ok_or("missing @PAR")?;
        match kind {
            "@STRUCT" => {
                let (sname, par_field) = parse_bracket(&par)?;
                let var = var.ok_or("missing @VAR")?;
                if let Some(inner) = var.strip_prefix('(') {
                    // ([struct, idx], $arg)
                    let inner = inner.strip_suffix(')').ok_or("unterminated `(` in @VAR")?;
                    let (bracket_part, arg_part) = inner
                        .rsplit_once(',')
                        .ok_or("expected `([struct, idx], $arg)`")?;
                    let (vsname, handler_field) = parse_bracket(bracket_part.trim())?;
                    if vsname != sname {
                        return Err(format!(
                            "struct mismatch between @PAR ({sname}) and @VAR ({vsname})"
                        ));
                    }
                    let value_arg = arg_part
                        .trim()
                        .strip_prefix('$')
                        .ok_or("handler argument must be `$name`")?
                        .to_string();
                    Ok(Annotation::StructFunction {
                        table: subject,
                        struct_name: sname,
                        par_field,
                        handler_field,
                        value_arg,
                    })
                } else {
                    let (vsname, var_field) = parse_bracket(&var)?;
                    if vsname != sname {
                        return Err(format!(
                            "struct mismatch between @PAR ({sname}) and @VAR ({vsname})"
                        ));
                    }
                    Ok(Annotation::StructDirect {
                        table: subject,
                        struct_name: sname,
                        par_field,
                        var_field,
                    })
                }
            }
            "@PARSER" => {
                let var = var.ok_or("missing @VAR")?;
                Ok(Annotation::Parser {
                    function: subject,
                    par: parse_varref(&par)?,
                    var: parse_varref(&var)?,
                })
            }
            "@GETTER" => {
                let par_arg: u32 = par
                    .parse()
                    .map_err(|_| format!("@PAR of a getter must be an argument index: {par}"))?;
                if let Some(var) = var {
                    if var != "$RET" {
                        return Err("getter @VAR must be $RET".to_string());
                    }
                }
                Ok(Annotation::Getter {
                    function: subject,
                    par_arg,
                })
            }
            _ => unreachable!("kind restricted above"),
        }
    }
}

/// Parses `[struct_name, index]`.
fn parse_bracket(s: &str) -> Result<(String, u32), String> {
    let inner = s
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected `[struct, index]`, got: {s}"))?;
    let (name, idx) = inner
        .split_once(',')
        .ok_or_else(|| format!("expected `[struct, index]`, got: {s}"))?;
    let idx: u32 = idx
        .trim()
        .parse()
        .map_err(|_| format!("bad field index in {s}"))?;
    if idx == 0 {
        return Err("field indices are 1-based".to_string());
    }
    Ok((name.trim().to_string(), idx))
}

/// Parses `$name` or `$name[i]`.
fn parse_varref(s: &str) -> Result<VarRef, String> {
    let body = s
        .strip_prefix('$')
        .ok_or_else(|| format!("expected `$name`, got: {s}"))?;
    if let Some((name, idx)) = body.split_once('[') {
        let idx = idx
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated index in {s}"))?
            .trim()
            .parse::<u32>()
            .map_err(|_| format!("bad index in {s}"))?;
        Ok(VarRef {
            name: name.trim().to_string(),
            index: Some(idx),
        })
    } else {
        Ok(VarRef {
            name: body.trim().to_string(),
            index: None,
        })
    }
}

/// The first 30 bytes of `s` for an error message, cut back to a char
/// boundary.
fn head(s: &str) -> &str {
    let mut end = s.len().min(30);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_struct_direct_annotation() {
        // PostgreSQL style, Figure 4(a).
        let anns = Annotation::parse(
            "{ @STRUCT = ConfigureNamesInt\n  @PAR = [config_int, 1]\n  @VAR = [config_int, 3] }",
        )
        .unwrap();
        assert_eq!(
            anns,
            vec![Annotation::StructDirect {
                table: "ConfigureNamesInt".into(),
                struct_name: "config_int".into(),
                par_field: 1,
                var_field: 3,
            }]
        );
    }

    #[test]
    fn parses_struct_function_annotation() {
        // Apache style, Figure 4(b).
        let anns = Annotation::parse(
            "{ @STRUCT = core_cmds\n  @PAR = [command_rec, 1]\n  @VAR = ([command_rec, 2], $arg) }",
        )
        .unwrap();
        assert_eq!(
            anns,
            vec![Annotation::StructFunction {
                table: "core_cmds".into(),
                struct_name: "command_rec".into(),
                par_field: 1,
                handler_field: 2,
                value_arg: "arg".into(),
            }]
        );
    }

    #[test]
    fn parses_parser_annotation() {
        // Redis style, Figure 4(c).
        let anns = Annotation::parse(
            "{ @PARSER = loadServerConfig\n  @PAR = $argv[0]\n  @VAR = $argv[1] }",
        )
        .unwrap();
        assert_eq!(
            anns,
            vec![Annotation::Parser {
                function: "loadServerConfig".into(),
                par: VarRef {
                    name: "argv".into(),
                    index: Some(0)
                },
                var: VarRef {
                    name: "argv".into(),
                    index: Some(1)
                },
            }]
        );
    }

    #[test]
    fn parses_getter_annotation() {
        // Hypertable style, Figure 4(d).
        let anns = Annotation::parse("{ @GETTER = get_i32\n  @PAR = 1\n  @VAR = $RET }").unwrap();
        assert_eq!(
            anns,
            vec![Annotation::Getter {
                function: "get_i32".into(),
                par_arg: 1,
            }]
        );
    }

    #[test]
    fn parses_multiple_blocks() {
        let anns =
            Annotation::parse("{ @GETTER = get_i32\n @PAR = 1 }\n{ @GETTER = get_str\n @PAR = 1 }")
                .unwrap();
        assert_eq!(anns.len(), 2);
    }

    #[test]
    fn rejects_malformed_blocks() {
        assert!(Annotation::parse("{ @PAR = 1 }").is_err());
        assert!(Annotation::parse("{ @STRUCT = t\n @PAR = [a, 0]\n @VAR = [a, 1] }").is_err());
        assert!(Annotation::parse("{ @STRUCT = t\n @PAR = [a, 1]\n @VAR = [b, 2] }").is_err());
        assert!(Annotation::parse("{ @GETTER = g\n @PAR = one }").is_err());
        assert!(Annotation::parse("{ @WHAT = x }").is_err());
    }

    #[test]
    fn error_context_is_cut_at_a_char_boundary() {
        // Byte 30 falls inside the two-byte `é`: the message's context
        // must stop before it instead of slicing the char.
        let text = format!("{}é and no block", "x".repeat(29));
        let err = Annotation::parse(&text).unwrap_err();
        assert_eq!(err, format!("expected `{{` near: {}", "x".repeat(29)));
    }

    #[test]
    fn counts_annotation_lines() {
        let text = "{ @STRUCT = t\n  @PAR = [a, 1]\n  @VAR = [a, 2] }";
        assert_eq!(Annotation::count_lines(text), 3);
    }

    #[test]
    fn plain_var_ref() {
        let anns =
            Annotation::parse("{ @PARSER = handle\n  @PAR = $name\n  @VAR = $value }").unwrap();
        match &anns[0] {
            Annotation::Parser { par, var, .. } => {
                assert_eq!(par.index, None);
                assert_eq!(par.name, "name");
                assert_eq!(var.name, "value");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
