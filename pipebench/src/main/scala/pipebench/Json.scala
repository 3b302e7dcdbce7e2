package pipebench

/** Minimal JSON rendering for the run record and the result line. Objects
  * are ordered field lists so records diff cleanly.
  */
object Json {

  final case class Obj(fields: (String, Any)*)

  def render(v: Any): String = v match {
    case null                      => "null"
    case s: String                 => quote(s)
    case b: Boolean                => b.toString
    case i: Int                    => i.toString
    case l: Long                   => l.toString
    case d: Double if d.isNaN || d.isInfinite => "null"
    case d: Double                 => d.toString
    case Some(x)                   => render(x)
    case None                      => "null"
    case o: Obj                    => o.fields.map { case (k, x) => s"${quote(k)}: ${render(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]           => xs.map(render).mkString("[", ", ", "]")
    case other                     => throw new IllegalArgumentException(s"no JSON form for $other")
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
