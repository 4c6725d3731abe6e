"""The C grammar (C99 plus common GNU extensions).

SuperC reuses Roskind's C grammar with Bison (§5); this definition
follows the same lineage (the classic ANSI C LALR(1) grammar extended
with typedef names as a distinct terminal, GNU ``__attribute__``,
``asm``, ``typeof``, statement expressions, and variadic parameters).

AST construction uses the §5.1 annotations: expression precedence
levels are ``passthrough`` (C has 17 levels; passthrough keeps trees
shallow), left-recursive repetitions are ``list``, and punctuation-only
helpers are ``layout``.  ``complete`` marks the syntactic units at
which FMLR subparsers may merge with static choice nodes: declarations,
definitions, statements, and expressions, plus members of commonly
configured lists (parameters, struct members, enumerators, and
initializer-list members) to avoid Figure 6's exponential blow-up.
"""

from __future__ import annotations

from repro.parser.grammar import Build, Grammar

# Keywords become their own terminals; the classifier maps identifier
# tokens whose text is in this set.
C_KEYWORDS = frozenset({
    "auto", "break", "case", "char", "const", "continue", "default",
    "do", "double", "else", "enum", "extern", "float", "for", "goto",
    "if", "inline", "int", "long", "register", "restrict", "return",
    "short", "signed", "sizeof", "static", "struct", "switch",
    "typedef", "union", "unsigned", "void", "volatile", "while",
    "_Bool", "_Complex", "_Imaginary",
    # GNU spellings, normalized by the classifier:
    "__attribute__", "asm", "typeof", "__builtin_va_arg",
    "__builtin_offsetof", "__extension__", "__alignof__", "__label__",
    "__thread",
})

# GNU alternate keyword spellings -> canonical terminal.
GNU_ALIASES = {
    "__const": "const", "__const__": "const",
    "__volatile": "volatile", "__volatile__": "volatile",
    "__restrict": "restrict", "__restrict__": "restrict",
    "__inline": "inline", "__inline__": "inline",
    "__signed": "signed", "__signed__": "signed",
    "__asm": "asm", "__asm__": "asm",
    "__typeof": "typeof", "__typeof__": "typeof",
    "__attribute": "__attribute__",
    "__alignof": "__alignof__",
}

P = Build.PASSTHROUGH
L = Build.LIST
N = Build.NODE
Y = Build.LAYOUT


def build_c_grammar() -> Grammar:
    """Construct (but do not generate tables for) the C grammar."""
    g = Grammar("TranslationUnit")

    # -- translation unit --------------------------------------------------
    g.rule("TranslationUnit", ["ExternalDeclarationList"], build=P)
    g.rule("TranslationUnit", [], build=N)
    g.rule("ExternalDeclarationList",
           ["ExternalDeclarationList", "ExternalDeclaration"], build=L)
    g.rule("ExternalDeclarationList", ["ExternalDeclaration"], build=L)
    g.rule("ExternalDeclaration", ["FunctionDefinition"], build=P)
    g.rule("ExternalDeclaration", ["Declaration"], build=P)
    g.rule("ExternalDeclaration", [";"], node_name="EmptyDeclaration")
    g.rule("ExternalDeclaration", ["AsmDefinition"], build=P)

    # -- function definitions ----------------------------------------------
    g.rule("FunctionDefinition",
           ["DeclarationSpecifiers", "Declarator", "CompoundStatement"],
           node_name="FunctionDefinition")
    # GNU: old-style `main()` without specifiers is still common.
    g.rule("FunctionDefinition", ["Declarator", "CompoundStatement"],
           node_name="FunctionDefinition")

    # -- declarations --------------------------------------------------------
    g.rule("Declaration",
           ["DeclarationSpecifiers", "InitDeclaratorList", ";"],
           node_name="Declaration")
    g.rule("Declaration", ["DeclarationSpecifiers", ";"],
           node_name="Declaration")

    g.rule("DeclarationSpecifiers",
           ["DeclarationSpecifiers", "DeclarationSpecifier"], build=L)
    g.rule("DeclarationSpecifiers", ["DeclarationSpecifier"], build=L)
    g.rule("DeclarationSpecifier", ["StorageClassSpecifier"], build=P)
    g.rule("DeclarationSpecifier", ["TypeSpecifier"], build=P)
    g.rule("DeclarationSpecifier", ["TypeQualifier"], build=P)
    g.rule("DeclarationSpecifier", ["FunctionSpecifier"], build=P)
    g.rule("DeclarationSpecifier", ["AttributeSpecifier"], build=P)

    for kw in ("typedef", "extern", "static", "auto", "register",
               "__thread"):
        g.rule("StorageClassSpecifier", [kw], build=P)
    for kw in ("void", "char", "short", "int", "long", "float",
               "double", "signed", "unsigned", "_Bool", "_Complex",
               "_Imaginary"):
        g.rule("TypeSpecifier", [kw], build=P)
    g.rule("TypeSpecifier", ["StructOrUnionSpecifier"], build=P)
    g.rule("TypeSpecifier", ["EnumSpecifier"], build=P)
    g.rule("TypeSpecifier", ["TYPEDEF_NAME"], build=P)
    g.rule("TypeSpecifier", ["typeof", "(", "Expression", ")"],
           node_name="Typeof")
    g.rule("TypeSpecifier", ["typeof", "(", "TypeName", ")"],
           node_name="TypeofType")
    for kw in ("const", "volatile", "restrict"):
        g.rule("TypeQualifier", [kw], build=P)
    g.rule("FunctionSpecifier", ["inline"], build=P)
    g.rule("FunctionSpecifier", ["__extension__"], build=P)

    g.rule("InitDeclaratorList",
           ["InitDeclaratorList", "Comma", "InitDeclarator"], build=L)
    g.rule("InitDeclaratorList", ["InitDeclarator"], build=L)
    g.rule("InitDeclarator", ["Declarator"], build=P)
    g.rule("InitDeclarator", ["Declarator", "=", "Initializer"],
           node_name="InitializedDeclarator")
    g.rule("InitDeclarator", ["Declarator", "AsmLabel"],
           node_name="AsmDeclarator")
    # GNU: attributes may trail the declarator (with or without an
    # initializer): `int x __attribute__((aligned(16))) = 1;`
    g.rule("InitDeclarator", ["Declarator", "AttributeSpecifiers"],
           node_name="AsmDeclarator")
    g.rule("InitDeclarator",
           ["Declarator", "AttributeSpecifiers", "=", "Initializer"],
           node_name="InitializedDeclarator")
    g.rule("AttributeSpecifiers",
           ["AttributeSpecifiers", "AttributeSpecifier"], build=L)
    g.rule("AttributeSpecifiers", ["AttributeSpecifier"], build=L)
    g.rule("AsmLabel", ["asm", "(", "STRING", ")"], node_name="AsmLabel")

    # -- struct / union / enum ------------------------------------------------
    g.rule("StructOrUnionSpecifier",
           ["StructOrUnion", "AttributeList", "TagName",
            "{", "StructDeclarationList", "}"],
           node_name="StructSpecifier")
    g.rule("StructOrUnionSpecifier",
           ["StructOrUnion", "AttributeList",
            "{", "StructDeclarationList", "}"],
           node_name="StructSpecifier")
    g.rule("StructOrUnionSpecifier",
           ["StructOrUnion", "AttributeList", "{", "}"],
           node_name="StructSpecifier")
    g.rule("StructOrUnionSpecifier",
           ["StructOrUnion", "AttributeList", "TagName"],
           node_name="StructReference")
    g.rule("StructOrUnion", ["struct"], build=P)
    g.rule("StructOrUnion", ["union"], build=P)
    # Struct tags live in a separate namespace: a typedef'd name may
    # also be a tag.
    g.rule("TagName", ["IDENTIFIER"], build=P)
    g.rule("TagName", ["TYPEDEF_NAME"], build=P)

    g.rule("StructDeclarationList",
           ["StructDeclarationList", "StructDeclaration"], build=L)
    g.rule("StructDeclarationList", ["StructDeclaration"], build=L)
    g.rule("StructDeclaration",
           ["SpecifierQualifierList", "StructDeclaratorList", ";"],
           node_name="StructDeclaration")
    g.rule("StructDeclaration", ["SpecifierQualifierList", ";"],
           node_name="StructDeclaration")  # anonymous member (GNU/C11)
    g.rule("SpecifierQualifierList",
           ["SpecifierQualifierList", "SpecifierQualifier"], build=L)
    g.rule("SpecifierQualifierList", ["SpecifierQualifier"], build=L)
    g.rule("SpecifierQualifier", ["TypeSpecifier"], build=P)
    g.rule("SpecifierQualifier", ["TypeQualifier"], build=P)
    g.rule("SpecifierQualifier", ["AttributeSpecifier"], build=P)

    g.rule("StructDeclaratorList",
           ["StructDeclaratorList", "Comma", "StructDeclarator"],
           build=L)
    g.rule("StructDeclaratorList", ["StructDeclarator"], build=L)
    g.rule("StructDeclarator", ["Declarator"], build=P)
    g.rule("StructDeclarator", ["Declarator", "AttributeSpecifiers"],
           node_name="AsmDeclarator")
    g.rule("StructDeclarator", ["Declarator", ":", "ConditionalExpression"],
           node_name="BitField")
    g.rule("StructDeclarator", [":", "ConditionalExpression"],
           node_name="BitField")

    g.rule("EnumSpecifier",
           ["enum", "TagName", "{", "EnumeratorList", "CommaOpt", "}"],
           node_name="EnumSpecifier")
    g.rule("EnumSpecifier",
           ["enum", "{", "EnumeratorList", "CommaOpt", "}"],
           node_name="EnumSpecifier")
    g.rule("EnumSpecifier", ["enum", "TagName"],
           node_name="EnumReference")
    g.rule("EnumeratorList",
           ["EnumeratorList", "Comma", "Enumerator"], build=L)
    g.rule("EnumeratorList", ["Enumerator"], build=L)
    g.rule("Enumerator", ["IDENTIFIER"], node_name="Enumerator")
    g.rule("Enumerator", ["IDENTIFIER", "=", "ConditionalExpression"],
           node_name="Enumerator")
    g.rule("CommaOpt", [","], build=Y)
    g.rule("CommaOpt", [], build=Y)

    # -- declarators -------------------------------------------------------------
    g.rule("Declarator", ["Pointer", "DirectDeclarator"],
           node_name="PointerDeclarator")
    g.rule("Declarator", ["DirectDeclarator"], build=P)
    g.rule("Pointer", ["*"], node_name="Pointer")
    g.rule("Pointer", ["*", "TypeQualifierList"], node_name="Pointer")
    g.rule("Pointer", ["*", "Pointer"], node_name="Pointer")
    g.rule("Pointer", ["*", "TypeQualifierList", "Pointer"],
           node_name="Pointer")
    g.rule("TypeQualifierList",
           ["TypeQualifierList", "TypeQualifier"], build=L)
    g.rule("TypeQualifierList", ["TypeQualifier"], build=L)

    g.rule("DirectDeclarator", ["IDENTIFIER"], build=P)
    g.rule("DirectDeclarator", ["(", "Declarator", ")"], build=P)
    g.rule("DirectDeclarator",
           ["(", "AttributeSpecifier", "Declarator", ")"],
           node_name="AttributedDeclarator")
    g.rule("DirectDeclarator",
           ["DirectDeclarator", "[", "ConditionalExpression", "]"],
           node_name="ArrayDeclarator")
    g.rule("DirectDeclarator", ["DirectDeclarator", "[", "]"],
           node_name="ArrayDeclarator")
    g.rule("DirectDeclarator",
           ["DirectDeclarator", "(", "ParameterTypeList", ")"],
           node_name="FunctionDeclarator")
    g.rule("DirectDeclarator",
           ["DirectDeclarator", "(", "IdentifierList", ")"],
           node_name="FunctionDeclarator")
    g.rule("DirectDeclarator", ["DirectDeclarator", "(", ")"],
           node_name="FunctionDeclarator")

    g.rule("ParameterTypeList", ["ParameterList"], build=P)
    g.rule("ParameterTypeList", ["ParameterList", "Comma", "..."],
           node_name="VariadicParameters")
    g.rule("ParameterList",
           ["ParameterList", "Comma", "ParameterDeclaration"], build=L)
    g.rule("ParameterList", ["ParameterDeclaration"], build=L)
    g.rule("ParameterDeclaration",
           ["DeclarationSpecifiers", "Declarator"],
           node_name="ParameterDeclaration")
    g.rule("ParameterDeclaration",
           ["DeclarationSpecifiers", "AbstractDeclarator"],
           node_name="ParameterDeclaration")
    g.rule("ParameterDeclaration", ["DeclarationSpecifiers"],
           node_name="ParameterDeclaration")
    g.rule("IdentifierList",
           ["IdentifierList", "Comma", "IDENTIFIER"], build=L)
    g.rule("IdentifierList", ["IDENTIFIER"], build=L)

    g.rule("TypeName", ["SpecifierQualifierList"], node_name="TypeName")
    g.rule("TypeName", ["SpecifierQualifierList", "AbstractDeclarator"],
           node_name="TypeName")
    g.rule("AbstractDeclarator", ["Pointer"], build=P)
    g.rule("AbstractDeclarator", ["Pointer", "DirectAbstractDeclarator"],
           node_name="PointerAbstractDeclarator")
    g.rule("AbstractDeclarator", ["DirectAbstractDeclarator"], build=P)
    g.rule("DirectAbstractDeclarator",
           ["(", "AbstractDeclarator", ")"], build=P)
    g.rule("DirectAbstractDeclarator", ["[", "]"],
           node_name="ArrayAbstractDeclarator")
    g.rule("DirectAbstractDeclarator",
           ["[", "ConditionalExpression", "]"],
           node_name="ArrayAbstractDeclarator")
    g.rule("DirectAbstractDeclarator",
           ["DirectAbstractDeclarator", "[", "]"],
           node_name="ArrayAbstractDeclarator")
    g.rule("DirectAbstractDeclarator",
           ["DirectAbstractDeclarator", "[", "ConditionalExpression", "]"],
           node_name="ArrayAbstractDeclarator")
    g.rule("DirectAbstractDeclarator", ["(", ")"],
           node_name="FunctionAbstractDeclarator")
    g.rule("DirectAbstractDeclarator", ["(", "ParameterTypeList", ")"],
           node_name="FunctionAbstractDeclarator")
    g.rule("DirectAbstractDeclarator",
           ["DirectAbstractDeclarator", "(", ")"],
           node_name="FunctionAbstractDeclarator")
    g.rule("DirectAbstractDeclarator",
           ["DirectAbstractDeclarator", "(", "ParameterTypeList", ")"],
           node_name="FunctionAbstractDeclarator")

    # -- initializers ---------------------------------------------------------------
    g.rule("Initializer", ["AssignmentExpression"], build=P)
    g.rule("Initializer", ["{", "InitializerList", "CommaOpt", "}"],
           node_name="CompoundInitializer")
    g.rule("Initializer", ["{", "}"], node_name="CompoundInitializer")
    g.rule("InitializerList",
           ["InitializerList", "Comma", "InitializerListMember"],
           build=L)
    g.rule("InitializerList", ["InitializerListMember"], build=L)
    g.rule("InitializerListMember", ["Initializer"], build=P)
    g.rule("InitializerListMember", ["Designation", "Initializer"],
           node_name="DesignatedInitializer")
    g.rule("Designation", ["DesignatorList", "="], build=P)
    g.rule("DesignatorList", ["DesignatorList", "Designator"], build=L)
    g.rule("DesignatorList", ["Designator"], build=L)
    g.rule("Designator", ["[", "ConditionalExpression", "]"],
           node_name="ArrayDesignator")
    g.rule("Designator", [".", "IDENTIFIER"],
           node_name="MemberDesignator")

    # -- statements -----------------------------------------------------------------
    g.rule("Statement", ["LabeledStatement"], build=P)
    g.rule("Statement", ["CompoundStatement"], build=P)
    g.rule("Statement", ["ExpressionStatement"], build=P)
    g.rule("Statement", ["SelectionStatement"], build=P)
    g.rule("Statement", ["IterationStatement"], build=P)
    g.rule("Statement", ["JumpStatement"], build=P)
    g.rule("Statement", ["AsmStatement"], build=P)

    g.rule("LabeledStatement", ["IDENTIFIER", ":", "Statement"],
           node_name="LabeledStatement")
    g.rule("LabeledStatement",
           ["case", "ConditionalExpression", ":", "Statement"],
           node_name="CaseStatement")
    # GNU case ranges: case 1 ... 5:
    g.rule("LabeledStatement",
           ["case", "ConditionalExpression", "...",
            "ConditionalExpression", ":", "Statement"],
           node_name="CaseRangeStatement")
    g.rule("LabeledStatement", ["default", ":", "Statement"],
           node_name="DefaultStatement")

    # Scope brackets run semantic actions via the context plug-in, which
    # observes reductions by left-hand side, so plain productions with
    # recognizable names suffice.
    g.rule("CompoundStatement", ["ScopePush", "BlockItemList",
                                 "ScopePop"],
           node_name="CompoundStatement")
    g.rule("CompoundStatement", ["ScopePush", "ScopePop"],
           node_name="CompoundStatement")
    # Scope brackets keep their tokens (refactorings need them); their
    # reductions drive push/pop in the context plug-in.
    g.rule("ScopePush", ["{"], build=P)
    g.rule("ScopePop", ["}"], build=P)
    g.rule("BlockItemList", ["BlockItemList", "BlockItem"], build=L)
    g.rule("BlockItemList", ["BlockItem"], build=L)
    g.rule("BlockItem", ["Declaration"], build=P)
    g.rule("BlockItem", ["Statement"], build=P)
    # GNU local labels.
    g.rule("BlockItem", ["__label__", "IdentifierList", ";"],
           node_name="LocalLabelDeclaration")

    g.rule("ExpressionStatement", ["Expression", ";"],
           node_name="ExpressionStatement")
    g.rule("ExpressionStatement", [";"], node_name="EmptyStatement")

    g.rule("SelectionStatement",
           ["if", "(", "Expression", ")", "Statement"],
           node_name="IfStatement")
    g.rule("SelectionStatement",
           ["if", "(", "Expression", ")", "Statement", "else",
            "Statement"],
           node_name="IfElseStatement")
    g.rule("SelectionStatement",
           ["switch", "(", "Expression", ")", "Statement"],
           node_name="SwitchStatement")

    g.rule("IterationStatement",
           ["while", "(", "Expression", ")", "Statement"],
           node_name="WhileStatement")
    g.rule("IterationStatement",
           ["do", "Statement", "while", "(", "Expression", ")", ";"],
           node_name="DoStatement")
    g.rule("IterationStatement",
           ["for", "(", "ExpressionOpt", ";", "ExpressionOpt", ";",
            "ExpressionOpt", ")", "Statement"],
           node_name="ForStatement")
    g.rule("IterationStatement",
           ["for", "(", "Declaration", "ExpressionOpt", ";",
            "ExpressionOpt", ")", "Statement"],
           node_name="ForStatement")  # C99 for-declaration
    g.rule("ExpressionOpt", ["Expression"], build=P)
    g.rule("ExpressionOpt", [], build=Y)

    g.rule("JumpStatement", ["goto", "IDENTIFIER", ";"],
           node_name="GotoStatement")
    g.rule("JumpStatement", ["goto", "*", "CastExpression", ";"],
           node_name="ComputedGotoStatement")  # GNU
    g.rule("JumpStatement", ["continue", ";"],
           node_name="ContinueStatement")
    g.rule("JumpStatement", ["break", ";"], node_name="BreakStatement")
    g.rule("JumpStatement", ["return", ";"], node_name="ReturnStatement")
    g.rule("JumpStatement", ["return", "Expression", ";"],
           node_name="ReturnStatement")

    # GNU inline assembly (statement and file-scope forms).
    g.rule("AsmStatement", ["AsmKeyword", "(", "AsmArguments", ")", ";"],
           node_name="AsmStatement")
    g.rule("AsmStatement",
           ["AsmKeyword", "volatile", "(", "AsmArguments", ")", ";"],
           node_name="AsmStatement")
    g.rule("AsmDefinition", ["AsmKeyword", "(", "AsmArguments", ")", ";"],
           node_name="AsmDefinition")
    g.rule("AsmKeyword", ["asm"], build=Y)
    g.rule("AsmArguments", ["StringLiteral"], build=L)
    g.rule("AsmArguments", ["AsmArguments", ":", "AsmOperandsOpt"],
           build=L)
    g.rule("AsmOperandsOpt", [], build=Y)
    g.rule("AsmOperandsOpt", ["AsmOperands"], build=P)
    g.rule("AsmOperands", ["AsmOperands", "Comma", "AsmOperand"],
           build=L)
    g.rule("AsmOperands", ["AsmOperand"], build=L)
    g.rule("AsmOperand", ["StringLiteral", "(", "Expression", ")"],
           node_name="AsmOperand")

    # -- attributes (GNU) --------------------------------------------------------------
    g.rule("AttributeSpecifier",
           ["__attribute__", "(", "(", "AttributeParams", ")", ")"],
           node_name="Attribute")
    g.rule("AttributeList", [], build=Y)
    g.rule("AttributeList", ["AttributeList", "AttributeSpecifier"],
           build=L)
    g.rule("AttributeParams", [], build=Y)
    g.rule("AttributeParams", ["AttributeParams", "Comma", "AttrItem"],
           build=L)
    g.rule("AttributeParams", ["AttrItem"], build=L)
    g.rule("AttrItem", ["AttrWord"], build=P)
    g.rule("AttrItem", ["AttrWord", "(", "ArgumentExpressionList", ")"],
           node_name="AttrCall")
    g.rule("AttrItem", ["AttrWord", "(", ")"], node_name="AttrCall")
    g.rule("AttrWord", ["IDENTIFIER"], build=P)
    g.rule("AttrWord", ["const"], build=P)

    # -- expressions ----------------------------------------------------------------------
    g.rule("Expression", ["AssignmentExpression"], build=P)
    g.rule("Expression", ["Expression", "Comma", "AssignmentExpression"],
           node_name="CommaExpression")

    g.rule("AssignmentExpression", ["ConditionalExpression"], build=P)
    for op in ("=", "*=", "/=", "%=", "+=", "-=", "<<=", ">>=", "&=",
               "^=", "|="):
        g.rule("AssignmentExpression",
               ["UnaryExpression", op, "AssignmentExpression"],
               node_name="AssignmentExpression")

    g.rule("ConditionalExpression", ["LogicalOrExpression"], build=P)
    g.rule("ConditionalExpression",
           ["LogicalOrExpression", "?", "Expression", ":",
            "ConditionalExpression"],
           node_name="ConditionalExpression")
    g.rule("ConditionalExpression",
           ["LogicalOrExpression", "?", ":", "ConditionalExpression"],
           node_name="ConditionalExpression")  # GNU x ?: y

    binary_levels = [
        ("LogicalOrExpression", "LogicalAndExpression", ["||"]),
        ("LogicalAndExpression", "InclusiveOrExpression", ["&&"]),
        ("InclusiveOrExpression", "ExclusiveOrExpression", ["|"]),
        ("ExclusiveOrExpression", "AndExpression", ["^"]),
        ("AndExpression", "EqualityExpression", ["&"]),
        ("EqualityExpression", "RelationalExpression", ["==", "!="]),
        ("RelationalExpression", "ShiftExpression",
         ["<", ">", "<=", ">="]),
        ("ShiftExpression", "AdditiveExpression", ["<<", ">>"]),
        ("AdditiveExpression", "MultiplicativeExpression", ["+", "-"]),
        ("MultiplicativeExpression", "CastExpression", ["*", "/", "%"]),
    ]
    for lhs, rhs, ops in binary_levels:
        g.rule(lhs, [rhs], build=P)
        for op in ops:
            g.rule(lhs, [lhs, op, rhs], node_name="BinaryExpression")

    g.rule("CastExpression", ["UnaryExpression"], build=P)
    g.rule("CastExpression", ["(", "TypeName", ")", "CastExpression"],
           node_name="CastExpression")

    g.rule("UnaryExpression", ["PostfixExpression"], build=P)
    g.rule("UnaryExpression", ["++", "UnaryExpression"],
           node_name="PreIncrement")
    g.rule("UnaryExpression", ["--", "UnaryExpression"],
           node_name="PreDecrement")
    for op in ("&", "*", "+", "-", "~", "!"):
        g.rule("UnaryExpression", [op, "CastExpression"],
               node_name="UnaryExpression")
    g.rule("UnaryExpression", ["sizeof", "UnaryExpression"],
           node_name="SizeofExpression")
    g.rule("UnaryExpression", ["sizeof", "(", "TypeName", ")"],
           node_name="SizeofType")
    g.rule("UnaryExpression", ["__alignof__", "UnaryExpression"],
           node_name="AlignofExpression")
    g.rule("UnaryExpression", ["__alignof__", "(", "TypeName", ")"],
           node_name="AlignofType")
    g.rule("UnaryExpression", ["__extension__", "CastExpression"],
           build=P)
    g.rule("UnaryExpression", ["&&", "IDENTIFIER"],
           node_name="LabelAddress")  # GNU computed goto

    g.rule("PostfixExpression", ["PrimaryExpression"], build=P)
    g.rule("PostfixExpression",
           ["PostfixExpression", "[", "Expression", "]"],
           node_name="SubscriptExpression")
    g.rule("PostfixExpression", ["PostfixExpression", "(", ")"],
           node_name="FunctionCall")
    g.rule("PostfixExpression",
           ["PostfixExpression", "(", "ArgumentExpressionList", ")"],
           node_name="FunctionCall")
    g.rule("PostfixExpression",
           ["PostfixExpression", ".", "MemberName"],
           node_name="DirectSelection")
    g.rule("PostfixExpression",
           ["PostfixExpression", "->", "MemberName"],
           node_name="IndirectSelection")
    g.rule("PostfixExpression", ["PostfixExpression", "++"],
           node_name="PostIncrement")
    g.rule("PostfixExpression", ["PostfixExpression", "--"],
           node_name="PostDecrement")
    # C99 compound literal.
    g.rule("PostfixExpression",
           ["(", "TypeName", ")", "{", "InitializerList", "CommaOpt",
            "}"],
           node_name="CompoundLiteral")
    g.rule("PostfixExpression",
           ["__builtin_va_arg", "(", "AssignmentExpression", "Comma",
            "TypeName", ")"],
           node_name="VaArg")
    g.rule("PostfixExpression",
           ["__builtin_offsetof", "(", "TypeName", "Comma",
            "OffsetofDesignator", ")"],
           node_name="OffsetofExpression")
    g.rule("OffsetofDesignator", ["IDENTIFIER"], build=L)
    g.rule("OffsetofDesignator",
           ["OffsetofDesignator", ".", "IDENTIFIER"], build=L)
    g.rule("OffsetofDesignator",
           ["OffsetofDesignator", "[", "Expression", "]"], build=L)
    g.rule("MemberName", ["IDENTIFIER"], build=P)
    g.rule("MemberName", ["TYPEDEF_NAME"], build=P)

    g.rule("ArgumentExpressionList",
           ["ArgumentExpressionList", "Comma", "AssignmentExpression"],
           build=L)
    g.rule("ArgumentExpressionList", ["AssignmentExpression"], build=L)

    g.rule("PrimaryExpression", ["IDENTIFIER"], build=P)
    g.rule("PrimaryExpression", ["CONSTANT"], build=P)
    g.rule("PrimaryExpression", ["StringLiteral"], build=P)
    g.rule("PrimaryExpression", ["(", "Expression", ")"], build=P)
    # GNU statement expression.
    g.rule("PrimaryExpression", ["(", "CompoundStatement", ")"],
           node_name="StatementExpression")
    # Adjacent string literals concatenate.
    g.rule("StringLiteral", ["StringLiteral", "STRING"], build=L)
    g.rule("StringLiteral", ["STRING"], build=L)

    g.rule("Comma", [","], build=Y)

    # -- complete syntactic units (§5.1) ------------------------------------------
    g.mark_complete(
        "TranslationUnit", "ExternalDeclarationList",
        "ExternalDeclaration", "FunctionDefinition", "Declaration",
        "Statement", "BlockItem", "BlockItemList", "CompoundStatement",
        "ExpressionStatement", "SelectionStatement",
        "IterationStatement", "JumpStatement", "LabeledStatement",
        "Expression", "AssignmentExpression", "ConditionalExpression",
        "ExpressionOpt",
        # members of commonly configured lists:
        "ParameterDeclaration", "ParameterList", "ParameterTypeList",
        "StructDeclaration", "StructDeclarationList",
        "StructDeclarator", "StructDeclaratorList",
        "Enumerator", "EnumeratorList",
        "Initializer", "InitializerList", "InitializerListMember",
        "InitDeclarator", "InitDeclaratorList",
        "ArgumentExpressionList", "DeclarationSpecifiers",
        "DeclarationSpecifier", "AttributeSpecifier",
        "AttributeSpecifiers", "AttributeParams",
        "AttrItem", "IdentifierList",
    )
    return g
