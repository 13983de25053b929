package repro.graphs

import java.io.{DataInputStream, DataOutputStream, InputStream, OutputStream}
import java.nio.ByteBuffer
import org.apache.spark.serializer.{DeserializationStream, SerializationStream, Serializer, SerializerInstance}
import scala.annotation.implicitNotFound
import scala.reflect.ClassTag

/** How a shuffled key or value is written: its fields in order, with no
  * header and no class descriptor. A record type the kit shuffles defines
  * its codec in its companion object; a type without one does not compile
  * as a key or value of [[CoPartitioned.shuffled]], `combined` or `reduced`.
  */
@implicitNotFound("no Codec[${T}]: the kit shuffles only types that define one")
private[repro] trait Codec[T] extends Serializable {
  def write(out: DataOutputStream, t: T): Unit
  def read(in: DataInputStream): T
}

private[repro] object Codec {
  def apply[T](implicit c: Codec[T]): Codec[T] = c

  implicit val long: Codec[Long] = new Codec[Long] {
    def write(out: DataOutputStream, t: Long): Unit = out.writeLong(t)
    def read(in: DataInputStream): Long = in.readLong()
  }

  implicit val boolean: Codec[Boolean] = new Codec[Boolean] {
    def write(out: DataOutputStream, t: Boolean): Unit = out.writeBoolean(t)
    def read(in: DataInputStream): Boolean = in.readBoolean()
  }

  /** The raw bits, so that a NaN keeps its payload. */
  implicit val double: Codec[Double] = new Codec[Double] {
    def write(out: DataOutputStream, t: Double): Unit = out.writeLong(java.lang.Double.doubleToRawLongBits(t))
    def read(in: DataInputStream): Double = java.lang.Double.longBitsToDouble(in.readLong())
  }

  implicit def tuple2[A, B](implicit a: Codec[A], b: Codec[B]): Codec[(A, B)] = new Codec[(A, B)] {
    def write(out: DataOutputStream, t: (A, B)): Unit = { a.write(out, t._1); b.write(out, t._2) }
    def read(in: DataInputStream): (A, B) = { val first = a.read(in); (first, b.read(in)) }
  }
}

/** The serializer of one kit shuffle: keys through `keys`, values through
  * `values`, back to back on a `DataOutputStream`. The end of a stream is
  * the end of its records. Spark's shuffle writers and readers call only
  * the key and value methods; the single-object ones throw, as in Spark
  * SQL's `UnsafeRowSerializer`.
  */
private[graphs] final class KitSerializer[K, V](keys: Codec[K], values: Codec[V]) extends Serializer with Serializable {

  def newInstance(): SerializerInstance = new SerializerInstance {
    def serializeStream(s: OutputStream): SerializationStream = new SerializationStream {
      private val out = new DataOutputStream(s)
      override def writeKey[T: ClassTag](key: T): SerializationStream = { keys.write(out, key.asInstanceOf[K]); this }
      override def writeValue[T: ClassTag](value: T): SerializationStream = { values.write(out, value.asInstanceOf[V]); this }
      def writeObject[T: ClassTag](t: T): SerializationStream = KitSerializer.unsupported
      def flush(): Unit = out.flush()
      def close(): Unit = out.close()
    }

    def deserializeStream(s: InputStream): DeserializationStream = new DeserializationStream {
      private val in = new DataInputStream(s)
      override def readKey[T: ClassTag](): T = keys.read(in).asInstanceOf[T]
      override def readValue[T: ClassTag](): T = values.read(in).asInstanceOf[T]
      def readObject[T: ClassTag](): T = KitSerializer.unsupported
      def close(): Unit = in.close()
    }

    def serialize[T: ClassTag](t: T): ByteBuffer = KitSerializer.unsupported
    def deserialize[T: ClassTag](bytes: ByteBuffer): T = KitSerializer.unsupported
    def deserialize[T: ClassTag](bytes: ByteBuffer, loader: ClassLoader): T = KitSerializer.unsupported
  }
}

private object KitSerializer {
  private def unsupported: Nothing =
    throw new UnsupportedOperationException("the kit serializer writes and reads shuffle streams of keys and values only")
}
